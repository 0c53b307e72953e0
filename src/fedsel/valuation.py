"""Device contribution estimation: coalition values, sampled and exact Shapley.

The round's explored devices form a cooperative game: the value of a subset is
the server-validation accuracy of the model obtained by aggregating just that
subset's updates. Contributions are running means of permutation marginals,
estimated by truncated Monte-Carlo walks; a brute-force subset-enumeration
Shapley implementation serves as the validation oracle for small games.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .solver import aggregation_count

EXACT_PLAYER_GUARD = 10


@dataclass
class CoalitionGame:
    """Players plus a deterministic subset -> value map."""

    players: tuple[int, ...]
    value_fn: Callable[[tuple[int, ...]], float]


@dataclass
class ContributionLedger:
    """Running-mean marginal contribution per device.

    beta[m] is maintained incrementally as the mean of all marginals recorded
    for m; counts[m] is how many were recorded. A per-device count replaces
    the exploitation-timer denominator, which would divide by zero on the
    first pass.
    """

    beta: dict[int, float] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    def get(self, device_id: int) -> float:
        return self.beta.get(device_id, 0.0)

    def items(self) -> list[tuple[int, float]]:
        return sorted(self.beta.items())


def record_marginal(ledger: ContributionLedger, device_id: int, marginal: float) -> ContributionLedger:
    """Fold one observed marginal into the device's running mean."""
    n = ledger.counts.get(device_id, 0) + 1
    old = ledger.beta.get(device_id, 0.0)
    ledger.counts[device_id] = n
    ledger.beta[device_id] = old + (marginal - old) / n
    return ledger


def coalition_value_fn(
    phi_cols: np.ndarray,
    member_deltas: dict[int, np.ndarray],
    validation_features: np.ndarray,
    validation_labels: np.ndarray,
    aggregation_rule: str = "accepted",
    total_devices: int | None = None,
) -> Callable[[tuple[int, ...]], float]:
    """The coalition-value oracle: subset -> validation accuracy of phi plus
    the subset's aggregated updates.

    phi_cols and each member delta are (d, K) one-vs-rest weight columns;
    member_deltas holds every explored device, and aggregation_rule picks
    the averaging denominator (see solver.aggregation_count). Validation
    scores of phi and of each delta are computed once, so a coalition costs
    O(n_val * K) instead of a fresh feature matmul.
    """
    if len(validation_labels) == 0:
        raise ValueError("the coalition value needs a nonempty validation split")
    explored = len(member_deltas)
    aggregation_count(aggregation_rule, 1, explored, total_devices)  # fail early on a bad rule
    val_features = np.asarray(validation_features, dtype=np.float64)
    base = val_features @ phi_cols
    member = {m: val_features @ delta for m, delta in member_deltas.items()}

    def value(subset: tuple[int, ...]) -> float:
        scores = base
        if subset:
            count = aggregation_count(aggregation_rule, len(subset), explored, total_devices)
            total = member[subset[0]].copy()
            for m in subset[1:]:
                total += member[m]
            scores = base + total / count
        predicted = np.argmax(scores, axis=1)
        return float(np.mean(predicted == validation_labels))

    return value


def tmc_estimate(
    game: CoalitionGame,
    delta_t: int,
    trunc_tol: float,
    seed: int,
    ledger: ContributionLedger | None = None,
    audit_sink: Callable[[dict], None] | None = None,
) -> ContributionLedger:
    """Truncated Monte-Carlo contribution estimation over delta_t rounds.

    Each round draws its permutation from a child stream of (seed, round), so
    rounds are independent and reproducible regardless of execution order. The
    walk evaluates value_fn on growing permutation prefixes; once the full-set
    value is within trunc_tol of the running value, remaining marginals are
    recorded as zero without further evaluations. value_fn is deterministic, so
    the empty-set and full-set values are computed once per call; each round
    then evaluates one prefix per non-truncated step except the last, which
    reuses the full-set value: at most delta_t * (len(players) - 1) + 2 calls.
    """
    players = tuple(game.players)
    if not players:
        raise ValueError("tmc_estimate needs at least one player")
    if delta_t < 1:
        raise ValueError(f"delta_t must be >= 1, got {delta_t}")
    if trunc_tol < 0:
        raise ValueError(f"trunc_tol must be >= 0, got {trunc_tol}")
    if ledger is None:
        ledger = ContributionLedger()

    n = len(players)
    empty_value = float(game.value_fn(()))
    full_value = float(game.value_fn(tuple(sorted(players))))
    for t_prime in range(delta_t):
        rng = np.random.default_rng((seed, t_prime))
        perm = tuple(rng.permutation(players))
        previous = empty_value
        truncated_from = None
        marginals = {}
        for step, player in enumerate(perm):
            if abs(full_value - previous) < trunc_tol:
                current = previous
                if truncated_from is None:
                    truncated_from = step
            elif step == n - 1:
                current = full_value
            else:
                prefix = tuple(sorted(perm[: step + 1]))
                current = float(game.value_fn(prefix))
            marginal = current - previous
            record_marginal(ledger, player, marginal)
            marginals[player] = marginal
            previous = current
        if audit_sink is not None:
            audit_sink(
                {
                    "round": t_prime,
                    "permutation": [int(p) for p in perm],
                    "marginals": {str(p): marginals[p] for p in perm},
                    "truncated_from": truncated_from,
                    "empty_value": empty_value,
                    "full_value": full_value,
                }
            )
    return ledger


def exact_shapley(game: CoalitionGame) -> dict[int, float]:
    """Exact Shapley values by subset enumeration with combinatorial weights.

    Evaluates value_fn once per subset (2^n calls) and refuses games with more
    than EXACT_PLAYER_GUARD players.
    """
    players = tuple(game.players)
    n = len(players)
    if n == 0:
        raise ValueError("exact_shapley needs at least one player")
    if n > EXACT_PLAYER_GUARD:
        raise ValueError(
            f"exact_shapley enumerates 2^n subsets; {n} players exceeds the "
            f"guard of {EXACT_PLAYER_GUARD}"
        )
    values = np.empty(1 << n)
    for mask in range(1 << n):
        subset = tuple(sorted(players[j] for j in range(n) if mask >> j & 1))
        values[mask] = game.value_fn(subset)

    # weight of a coalition of size s joined by one more player
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s] * fact[n - 1 - s] / fact[n] for s in range(n)]

    shapley = {p: 0.0 for p in players}
    for mask in range(1 << n):
        size = mask.bit_count()
        for j in range(n):
            if mask >> j & 1:
                continue
            gain = values[mask | (1 << j)] - values[mask]
            shapley[players[j]] += weight[size] * gain
    return shapley
