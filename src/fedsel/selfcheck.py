"""Built-in oracle suites: fast independent checks of the numerical core.

Four suites, each printing one PASS/FAIL line:

  conjugate  Fenchel-Young inequality, equality at u = f'(a), numeric
             conjugate reconstruction, derivative finite differences, and
             closed-form coordinate-step optimality.
  shapley    exact_shapley axioms (efficiency, symmetry, dummy, additivity)
             on random games.
  tmc        sampled estimates against exact Shapley values.
  duality    gap nonnegativity at random feasible duals and convergence of
             the coordinate solver to a near-zero gap.

The conjugate suite accepts injected loss objects so a deliberately corrupted
conjugate is observable as a failing suite (fault-injection hook for tests).
"""
from __future__ import annotations

import numpy as np

from .data import DeviceDataset
from .losses import Loss, SmoothedHinge, SquaredLoss
from .solver import Hyperparams, device_update, duality_gap
from .valuation import CoalitionGame, ContributionLedger, exact_shapley, tmc_estimate

_CHECK_SEED = 20240901


def _random_game(rng: np.random.Generator, n: int) -> CoalitionGame:
    players = tuple(range(n))
    table = {(): 0.0}
    for mask in range(1, 1 << n):
        subset = tuple(p for p in players if mask >> p & 1)
        table[subset] = float(rng.uniform())
    return CoalitionGame(players=players, value_fn=lambda s: table[tuple(sorted(s))])


def check_conjugate(losses: list[Loss] | None = None) -> tuple[bool, str]:
    if losses is None:
        losses = [SmoothedHinge(1.0), SmoothedHinge(0.5), SquaredLoss()]
    rng = np.random.default_rng(_CHECK_SEED)
    grid_a = np.linspace(-50.0, 50.0, 200001)
    for loss in losses:
        for y in (-1.0, 1.0):
            if isinstance(loss, SmoothedHinge):
                dual_pts = y * np.linspace(-1.0, 0.0, 41)
            else:
                dual_pts = np.linspace(-3.0, 3.0, 41)
            f_grid = loss.value(grid_a, y)
            for u in dual_pts:
                # Fenchel-Young: f(a) + f*(u) >= a*u everywhere
                fstar = float(loss.conjugate(np.array(u), y))
                worst = float(np.min(f_grid + fstar - grid_a * u))
                if worst < -1e-12:
                    return False, f"{loss} y={y} u={u:.4f}: FY violated by {worst:.2e}"
                # numeric reconstruction of the supremum
                numeric = float(np.max(grid_a * u - f_grid))
                if fstar - numeric < -1e-12 or fstar - numeric > 5e-3:
                    return False, (
                        f"{loss} y={y} u={u:.4f}: conjugate {fstar:.6f} vs "
                        f"grid supremum {numeric:.6f}"
                    )
            # equality at u = f'(a): sharp to rounding
            a = rng.uniform(-4.0, 4.0, size=200)
            u = loss.derivative(a, y)
            residual = loss.value(a, y) + loss.conjugate(u, y) - a * u
            if float(np.max(np.abs(residual))) > 1e-9:
                return False, f"{loss} y={y}: FY equality residual {np.max(np.abs(residual)):.2e}"
            # derivative against central differences, away from kinks
            h = 1e-5
            if isinstance(loss, SmoothedHinge):
                z = 1.0 - y * a
                a = a[(np.abs(z) > 1e-3) & (np.abs(z - loss.gamma) > 1e-3)]
            fd = (loss.value(a + h, y) - loss.value(a - h, y)) / (2 * h)
            exact = loss.derivative(a, y)
            rel = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
            if float(np.max(rel, initial=0.0)) > 1e-6:
                return False, f"{loss} y={y}: derivative FD rel err {np.max(rel):.2e}"
            # closed-form step maximizes the 1-d dual model
            for _ in range(50):
                alpha = y * rng.uniform(0.0, 1.0)
                margin = rng.uniform(-3.0, 3.0)
                q = rng.uniform(0.01, 5.0)

                def model(delta: float) -> float:
                    conj = float(loss.conjugate(np.array(-(alpha + delta)), y))
                    return -conj - delta * margin - 0.5 * q * delta * delta

                step = float(loss.coordinate_delta(alpha, y, margin, q))
                best = model(step)
                if isinstance(loss, SmoothedHinge):
                    probes = y * np.linspace(0.0, 1.0, 101) - alpha
                else:
                    probes = step + np.linspace(-2.0, 2.0, 101)
                for probe in probes:
                    if model(float(probe)) > best + 1e-10:
                        return False, (
                            f"{loss} y={y}: coordinate step {step:.6f} beaten "
                            f"by probe {float(probe):.6f}"
                        )
    return True, "Fenchel-Young, derivatives, and coordinate steps agree"


def check_shapley() -> tuple[bool, str]:
    rng = np.random.default_rng(_CHECK_SEED + 1)
    for trial in range(25):
        n = int(rng.integers(1, 7))
        game = _random_game(rng, n)
        shapley = exact_shapley(game)
        total = sum(shapley.values())
        span = game.value_fn(tuple(range(n))) - game.value_fn(())
        if abs(total - span) > 1e-12:
            return False, f"game {trial}: efficiency off by {abs(total - span):.2e}"
        # dummy player: duplicate the game with one added null player
        players = tuple(range(n + 1))
        base = game.value_fn
        null_game = CoalitionGame(
            players=players,
            value_fn=lambda s, base=base, n=n: base(tuple(p for p in s if p < n)),
        )
        null_shap = exact_shapley(null_game)
        if abs(null_shap[n]) > 1e-12:
            return False, f"game {trial}: dummy player got {null_shap[n]:.2e}"
        for p in range(n):
            if abs(null_shap[p] - shapley[p]) > 1e-12:
                return False, f"game {trial}: dummy changed player {p}"
    # symmetry on a crafted two-symmetric-player game
    sym = CoalitionGame(
        players=(0, 1, 2), value_fn=lambda s: float(len(s) >= 2 or 2 in s)
    )
    sv = exact_shapley(sym)
    if abs(sv[0] - sv[1]) > 1e-12:
        return False, f"symmetric players differ: {sv[0]} vs {sv[1]}"
    return True, "efficiency, symmetry, and dummy axioms hold"


def check_tmc() -> tuple[bool, str]:
    rng = np.random.default_rng(_CHECK_SEED + 2)
    worst = 0.0
    for trial in range(5):
        game = _random_game(rng, 5)
        exact = exact_shapley(game)
        ledger = tmc_estimate(game, delta_t=1500, trunc_tol=0.0, seed=1000 + trial)
        err = max(abs(ledger.get(p) - exact[p]) for p in game.players)
        worst = max(worst, err)
        if err > 0.05:
            return False, f"game {trial}: max |tmc - exact| = {err:.4f} > 0.05"
    return True, f"sampled estimates within 0.05 of exact (worst {worst:.4f})"


def check_duality() -> tuple[bool, str]:
    rng = np.random.default_rng(_CHECK_SEED + 3)
    for trial, loss_name in enumerate(["smoothed_hinge", "squared", "smoothed_hinge"]):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(3, 15))
        features = rng.normal(size=(n, d))
        features /= max(1.0, float(np.max(np.linalg.norm(features, axis=1))))
        labels = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        hp = Hyperparams(loss=loss_name, epochs=200, seed=7 + trial)
        lam = hp.resolved_lambda(n)
        loss = hp.make_loss()

        alpha0 = labels * rng.uniform(0.0, 1.0, size=n)
        gap0 = duality_gap(alpha0, features, labels, loss, lam)
        if gap0 < -1e-9:
            return False, f"instance {trial}: negative gap {gap0:.2e} at feasible dual"

        device = DeviceDataset(
            device_id=0,
            features=features,
            labels=labels,
            sample_indices=np.arange(n),
            test_features=features[:0],
            test_labels=labels[:0].astype(np.int64),
        )
        update = device_update(
            device, np.zeros(d), np.zeros(n), hp, rng=11 + trial, total_samples=n
        )
        gap = duality_gap(update.rho, features, labels, loss, lam)
        if not gap < 1e-6:
            return False, f"instance {trial}: gap {gap:.2e} after 200 passes"
    return True, "gap nonnegative and solver closes it below 1e-6"


SUITES = {
    "conjugate": check_conjugate,
    "shapley": check_shapley,
    "tmc": check_tmc,
    "duality": check_duality,
}


def run_selfcheck(
    names: list[str] | None = None,
    out=print,
    conjugate_losses: list[Loss] | None = None,
) -> bool:
    """Run the named suites (all by default); returns True only if all pass."""
    chosen = list(SUITES) if not names else names
    unknown = [n for n in chosen if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown selfcheck suite(s) {unknown}; known: {sorted(SUITES)}")
    all_ok = True
    for name in chosen:
        if name == "conjugate":
            ok, detail = check_conjugate(conjugate_losses)
        else:
            ok, detail = SUITES[name]()
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
