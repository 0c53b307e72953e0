"""Device selection policies: explore/exploit, random, and greedy baselines."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .settings import check_args, check_fields, setting
from .solver import Hyperparams
from .valuation import prefix_values


@dataclass(frozen=True)
class KeepRule:
    """How the sorted contribution list is cut into the accepted set."""

    kind: str = setting(
        "selection.keep_rule", "str", "positive", ("positive", "top_k", "threshold")
    )
    k: int = setting("selection.keep_k", "int", 1, "[1, inf)", ("selection.keep_rule", "top_k"))
    cutoff: float = setting(
        "selection.keep_cutoff", "float", 0.0, "(-inf, inf)", ("selection.keep_rule", "threshold")
    )

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str = setting("orchestrator.policy", "str", "cds", ("cds", "random", "greedy"))
    keep_rule: KeepRule = KeepRule()
    greedy_early_stop: bool = setting("selection.greedy_early_stop", "bool", True)
    # keep contribution means across rounds
    beta_persistence: bool = setting("selection.beta_persistence", "bool", False)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class RoundPlan:
    """The round's decisions: explored set, accepted subset, contribution snapshot."""

    explored: tuple[int, ...]
    accepted: tuple[int, ...]
    betas: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.explored and not self.accepted:
            raise ValueError("a plan with explored devices must accept at least one")
        if not set(self.accepted) <= set(self.explored):
            raise ValueError("accepted devices must be a subset of explored devices")


def exploration_size(num_devices: int, c_fraction: float) -> int:
    return max(1, int(np.floor(c_fraction * num_devices)))


def explore_select(num_devices: int, c_fraction: float, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform sample without replacement of max(1, floor(C*M)) device ids."""
    check_args(Hyperparams, c_fraction=c_fraction)
    size = exploration_size(num_devices, c_fraction)
    picked = rng.choice(num_devices, size=size, replace=False)
    return tuple(int(m) for m in np.sort(picked))


def exploit_select(betas: dict[int, float], keep_rule: KeepRule) -> tuple[int, ...]:
    """Cut the explored devices' contributions {id: beta} into the accepted
    set M-tilde.

    The devices are ranked by contribution descending, ties by ascending id.
    `positive` keeps strictly positive contributions, `threshold` keeps
    beta >= cutoff, `top_k` keeps the k best. Whenever a filter comes back
    empty the single best device is kept, so aggregation always has input.
    """
    ranking = sorted(betas.items(), key=lambda item: (-item[1], item[0]))
    if not ranking:
        raise ValueError("exploit_select needs the contribution of at least one explored device")
    if keep_rule.kind == "positive":
        kept = [m for m, beta in ranking if beta > 0.0]
    elif keep_rule.kind == "threshold":
        kept = [m for m, beta in ranking if beta >= keep_rule.cutoff]
    else:
        kept = [m for m, _ in ranking[: keep_rule.k]]
    if not kept:
        kept = [ranking[0][0]]
    return tuple(sorted(kept))


def greedy_from_value_fn(players, k: int, value_fn, early_stop: bool = False) -> tuple[int, ...]:
    """Iteratively add the player with the greatest coalition-value gain.

    A sweep values its candidate coalitions, the chosen set plus each
    remaining player in ascending order, in one valuation.prefix_values
    call, with the chosen set as the shared prefix and each candidate as a
    one-member walk. Ties go to the lowest player id. With early_stop,
    growth stops once the best marginal gain is <= 0, but the first pick is
    always kept.
    """
    players = sorted(players)
    if k <= 0:
        raise ValueError(f"greedy selection needs k >= 1, got {k}")
    if k > len(players):
        raise ValueError(f"k={k} exceeds the {len(players)} available updates")

    chosen: list[int] = []
    current_value = value_fn(())
    remaining = players
    while len(chosen) < k and remaining:
        best_id, best_value = None, -np.inf
        sweep = prefix_values(value_fn, [(m,) for m in remaining], tuple(chosen))
        for m, [candidate_value] in zip(remaining, sweep):
            if candidate_value > best_value:
                best_id, best_value = m, candidate_value
        if early_stop and chosen and best_value - current_value <= 0.0:
            break
        chosen.append(best_id)
        remaining.remove(best_id)
        current_value = best_value
    return tuple(sorted(chosen))


def random_aggregate_plan(explored) -> RoundPlan:
    """FedAvg behavior: accept every explored device, no contribution filter."""
    explored = tuple(explored)
    if not explored:
        raise ValueError("random_aggregate_plan needs a nonempty explored set")
    return RoundPlan(explored=explored, accepted=explored)
