"""Per-sample convex losses with the conjugate machinery the dual solver needs.

Each loss works on raw scores a = x.w and labels in {-1, +1} and exposes:

  value(a, y)             per-sample loss f(a)
  derivative(a, y)        f'(a), used by the checks
  conjugate(u, y)         f*(u), +inf outside the conjugate's domain
  coordinate_delta(...)   closed-form single-coordinate dual ascent step
  dual_feasible(alpha, y) whether -alpha lies in the domain of f*
  project_dual(alpha, y)  nearest point of the domain, a rounding guard

The coordinate step solves, exactly, the one-dimensional problem
max_delta -f*(-(alpha+delta)) - delta*margin - (q/2)*delta^2 scaled by 1/D,
where q = |x|^2/(lambda*D); that is the only piece of loss-specific algebra
the solver relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .settings import Setting, check_fields, check_values

GAMMA = Setting("solver.gamma", "float", 1.0, "(0, inf)", ("solver.loss", "smoothed_hinge"))


@dataclass(frozen=True)
class SmoothedHinge:
    """Hinge loss with a quadratic head of width gamma (gamma > 0)."""

    gamma: float = GAMMA.field()

    def __post_init__(self) -> None:
        check_fields(self)

    def value(self, margins, labels):
        z = 1.0 - np.asarray(labels) * np.asarray(margins)
        g = self.gamma
        return np.where(z <= 0.0, 0.0, np.where(z >= g, z - 0.5 * g, z * z / (2.0 * g)))

    def derivative(self, margins, labels):
        labels = np.asarray(labels)
        z = 1.0 - labels * np.asarray(margins)
        return -labels * np.clip(z / self.gamma, 0.0, 1.0)

    def conjugate(self, u, labels):
        u = np.asarray(u, dtype=float)
        t = np.asarray(labels) * u
        inside = (t >= -1.0) & (t <= 0.0)
        return np.where(inside, t + 0.5 * self.gamma * u * u, np.inf)

    def dual_feasible(self, alpha, labels):
        s = np.asarray(labels) * np.asarray(alpha)
        return (s >= 0.0) & (s <= 1.0)

    def project_dual(self, alpha, labels):
        """Snap alpha onto the conjugate's domain.

        Aggregated dual vectors are convex combinations of exactly-clipped
        coordinate steps, so they can drift outside [0, 1] by rounding ulps;
        projecting before a conjugate call keeps the value finite without
        changing any feasible input.
        """
        labels = np.asarray(labels)
        return labels * np.clip(labels * np.asarray(alpha, dtype=float), 0.0, 1.0)

    def coordinate_delta(self, alpha, labels, margins, q):
        """Exact argmax step, clipped so y*(alpha+delta) stays in [0, 1]."""
        labels = np.asarray(labels)
        s = labels * alpha
        s_star = s + (1.0 - labels * margins - self.gamma * s) / (self.gamma + q)
        return labels * np.clip(s_star, 0.0, 1.0) - alpha


@dataclass(frozen=True)
class SquaredLoss:
    """0.5*(a - y)^2; conjugate is finite everywhere."""

    def value(self, margins, labels):
        diff = np.asarray(margins) - np.asarray(labels)
        return 0.5 * diff * diff

    def derivative(self, margins, labels):
        return np.asarray(margins) - np.asarray(labels)

    def conjugate(self, u, labels):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u + u * np.asarray(labels)

    def dual_feasible(self, alpha, labels):
        return np.ones(np.broadcast(np.asarray(alpha), np.asarray(labels)).shape, dtype=bool)

    def project_dual(self, alpha, labels):
        return np.asarray(alpha, dtype=float)

    def coordinate_delta(self, alpha, labels, margins, q):
        return (np.asarray(labels) - alpha - margins) / (1.0 + q)


Loss = SmoothedHinge | SquaredLoss

LOSSES = {"smoothed_hinge": SmoothedHinge, "squared": SquaredLoss}
LOSS = Setting("solver.loss", "str", "smoothed_hinge", tuple(LOSSES))


def make_loss(name: str, gamma: float = GAMMA.default) -> Loss:
    check_values({"loss": (LOSS, name), "gamma": (GAMMA, gamma)})
    return SmoothedHinge(gamma=gamma) if name == "smoothed_hinge" else SquaredLoss()
