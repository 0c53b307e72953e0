"""Device contribution estimation: coalition values, sampled and exact Shapley.

The round's explored devices form a cooperative game: the value of a subset is
the server-validation accuracy of the model obtained by aggregating just that
subset's updates. Contributions are running means of permutation marginals,
estimated by truncated Monte-Carlo walks; a brute-force subset-enumeration
Shapley implementation serves as the validation oracle for small games.
CoalitionOracle.walk_values runs the walk kernel (_coalition.c) where
fedsel.native binds it, else one numpy call per value.
"""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import native
from .products import kmajor_product
from .settings import check_args
from .solver import Hyperparams, aggregation_count

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


VALUE_BLOCK_ROWS = 64  # validation rows per block of the compiled walk kernel
# Work a walk_values call needs per extra row range: rows x classes x
# (members + 2 x values), for each member's row peaks and each value's add
# and scoring. The calls follow the oracle's BLAS products, after which
# OpenBLAS's idle worker busy-waits on one core (a grid pass burns twice its
# wall time in CPU), so a call may run two ranges per usable CPU
# (native.lanes) and take a larger share of the cores from that worker. On
# a 2-core AVX-512 host, with 4 ranges against 2, the six truncated
# Monte-Carlo calls of a grid pass (146M each) took 0.31-0.32 s against
# 0.43-0.45 s, and with RANGE_WORK at 4M against 16M (one range) the 13
# greedy sweeps of a grid pass (2-15M each, 3-4 ranges) 0.19-0.22 s against
# 0.23-0.24 s. Timed alone right after a product, a call below 1M lost
# 0.5-1 ms on more than one range.
RANGE_WORK = 1 << 22
# Most (d, K) blocks, phi and member updates, stacked into one validation
# product. Each chunk's product buffer lives as long as the oracle, since
# the member scores are row views into it, so the cap bounds the chunk, not
# the memory: on the grid (5,000 validation rows, 10 classes) 20 blocks make
# a 7.6 MiB buffer, the size at which BENCH_11.json and BENCH_13.json
# measured the benchmark's peak RSS. Every stacked shape is probed (see
# products).
STACKED_MEMBERS = 20


class CoalitionOracle:
    """The coalition-value oracle: subset -> validation accuracy of phi plus
    the subset's aggregated updates.

    phi_cols and each member delta are (d, K) one-vs-rest weight columns;
    member_deltas holds every explored device, and aggregation_rule picks
    the averaging denominator (see solver.aggregation_count). Validation
    scores of phi and of each delta are computed once, so a coalition costs
    O(n_val * K) instead of a fresh feature matmul; they come from probed,
    stacked class-major products and stay class-major, (K, n_val) each (see
    _validation_scores). Calling the oracle values one subset with numpy;
    `walk_values` values every prefix of many walks after a shared prefix
    (a truncated Monte-Carlo call's walks, or a greedy sweep's candidates
    after its chosen set) with the compiled walk kernel and bitwise-equal
    results.
    """

    def __init__(
        self,
        phi_cols: np.ndarray,
        member_deltas: dict[int, np.ndarray],
        validation_features: np.ndarray,
        validation_labels: np.ndarray,
        aggregation_rule: str = "accepted",
        total_devices: int | None = None,
    ) -> None:
        if len(validation_labels) == 0:
            raise ValueError("the coalition value needs a nonempty validation split")
        self._rule = aggregation_rule
        self._explored = len(member_deltas)
        self._total_devices = total_devices
        aggregation_count(aggregation_rule, 1, self._explored, total_devices)  # fail early
        val_features = np.asarray(validation_features, dtype=np.float64)
        self._labels = np.asarray(validation_labels)
        self._rows = {m: i for i, m in enumerate(member_deltas)}
        self._base, *self._members = _validation_scores(
            val_features, [phi_cols, *member_deltas.values()]
        )

    def _count(self, size: int) -> int:
        return aggregation_count(self._rule, size, self._explored, self._total_devices)

    def __call__(self, subset: tuple[int, ...]) -> float:
        scores = self._base
        if subset:
            total = self._members[self._rows[subset[0]]].copy()
            for m in subset[1:]:
                total += self._members[self._rows[m]]
            scores = self._base + total / self._count(len(subset))
        predicted = np.argmax(scores, axis=0)
        return float(np.mean(predicted == self._labels))

    def walk_values(self, walks, prefix=()) -> list[list[float]]:
        """[[self(tuple(sorted((*prefix, *walk[:size])))) for size in range(1, len(walk) + 1)]
        for walk in walks], in one pass of the compiled walk kernel.

        The walks are of one length, and together with the prefix each visits
        a member at most once. A truncated Monte-Carlo call passes its walks
        with no prefix; a greedy sweep passes its chosen set as the prefix
        and each candidate as a walk of one member. Per block of validation
        rows the kernel sums the prefix's member scores once, in the order
        given, adds each walk's member scores to that sum in walk order, and
        scores a row from it only where a rounding bound certifies that the
        sorted sum predicts the same class; it scores every other row exactly
        as a call does (see _coalition.c).

        Falls back to one call per value when the kernel is not available,
        the labels are not integers, or a base or member score is not finite
        (np.argmax ranks NaN first, the kernel does not). The rows are split
        into one range per RANGE_WORK of the call's work, at most
        native.lanes() of them.
        """
        prefix = tuple(prefix)
        if len({len(walk) for walk in walks}) > 1:
            raise ValueError("walks must have one length")
        if len(set(prefix)) != len(prefix) or any(
            len({*prefix, *walk}) != len(prefix) + len(walk) for walk in walks
        ):
            raise ValueError(
                "walks must visit each member at most once, none of them in the prefix"
            )
        kernel = _walk_kernel() if walks and walks[0] else None
        if kernel is None or not self._kernel_safe:
            return prefix_values(self.__call__, walks, prefix)  # a method has no walk_values
        work = self._base.size * (len(self._members) + 2 * len(walks) * len(walks[0]))
        ranges = min(native.lanes(), 1 + work // RANGE_WORK)
        return self._kernel_walk_values(kernel, walks, ranges, prefix)[0]

    @functools.cached_property
    def _kernel_safe(self) -> bool:
        scores = [self._base, *self._members]
        labels = self._labels
        return labels.dtype.kind in "biu" and labels.shape == self._base.shape[1:] and all(
            a.dtype == np.float64 and a.flags.c_contiguous and a.shape == self._base.shape
            and np.isfinite(a).all()
            for a in scores
        )

    def _kernel_walk_values(
        self, kernel, walks, ranges: int, prefix=()
    ) -> tuple[list[list[float]], int]:
        """The walk kernel's values, and how many rows it scored on its exact
        path.

        The kernel sees the members in ascending id order, and the prefix
        and the walks as ranks in it; it reads the class-major base and
        member rows in place, each range from its first row on, with the
        row stride n. The validation rows are split into
        `ranges` contiguous ranges on block boundaries (fewer when there are
        fewer blocks), each scored by its own kernel call on its own thread
        (ctypes releases the GIL); every buffer is allocated here, and the
        ranges' integer counts of correct rows are summed, so the values do
        not depend on `ranges`.
        """
        ids = sorted(self._rows)
        rank = {m: q for q, m in enumerate(ids)}
        shared = np.array([rank[m] for m in prefix], dtype=np.int64)
        perms = np.array([[rank[m] for m in walk] for walk in walks], dtype=np.int64)
        steps = perms.shape[1]
        counts = np.array(
            [self._count(len(prefix) + step) for step in range(1, steps + 1)], dtype=np.float64
        )
        members = np.array([self._members[self._rows[m]].ctypes.data for m in ids], dtype=np.uintp)
        k, n = self._base.shape
        labels = np.ascontiguousarray(self._labels, dtype=np.int64)
        scratch = len(ids) * (VALUE_BLOCK_ROWS + 1) + (2 * k + 7) * VALUE_BLOCK_ROWS
        bounds = _row_ranges(n, ranges)
        correct = np.empty((len(bounds), len(walks) * steps), dtype=np.int64)
        exact_rows = np.empty(len(bounds), dtype=np.int64)
        itemsize = self._base.itemsize
        base = self._base.ctypes.data
        native.run_concurrently([
            functools.partial(
                kernel, stop - start, k, n, VALUE_BLOCK_ROWS, base + start * itemsize,
                members + np.uintp(start * itemsize), len(ids), labels[start:stop],
                len(shared), shared, len(walks), steps, perms, counts, correct[part],
                exact_rows[part : part + 1], np.empty(scratch),
            )
            for part, (start, stop) in enumerate(bounds)
        ])
        hits = correct.sum(axis=0).reshape(len(walks), steps).tolist()
        return [[h / n for h in walk] for walk in hits], int(exact_rows.sum())


def prefix_values(value_fn, walks, prefix=()) -> list[list[float]]:
    """[[value_fn(tuple(sorted((*prefix, *walk[:size])))) for size in range(1, len(walk) + 1)]
    for walk in walks]: the value of the prefix plus each nonempty prefix of
    each walk.

    value_fn.walk_values(walks, prefix) gives them when value_fn has that
    method (CoalitionOracle); otherwise each value is one value_fn call, in
    that order, walk after walk.
    """
    walk_values = getattr(value_fn, "walk_values", None)
    if walk_values is not None:
        return walk_values(walks, prefix)
    prefix = tuple(prefix)
    return [
        [value_fn(tuple(sorted((*prefix, *walk[:size])))) for size in range(1, len(walk) + 1)]
        for walk in walks
    ]


def _validation_scores(features, weights) -> list[np.ndarray]:
    """[(features @ w).T for w in weights], equal bit for bit: each a
    C-contiguous (classes, n) row view, the layout the walk kernel reads.

    The P blocks (phi, then each member's update) go in
    ceil(P / STACKED_MEMBERS) near-equal chunks, and each chunk is one
    class-major product (products.kmajor_product, probed once per shape) in
    a buffer of its own, which the chunk's views keep alive as long as the
    oracle.
    """
    classes = weights[0].shape[1]
    chunks = -(-len(weights) // STACKED_MEMBERS)
    edges = [len(weights) * c // chunks for c in range(chunks + 1)]
    scores = []
    for start, stop in zip(edges[:-1], edges[1:]):
        product = kmajor_product(features, weights[start:stop])
        scores += [product[j : j + classes] for j in range(0, len(product), classes)]
    return scores


def _row_ranges(n: int, ranges: int) -> list[tuple[int, int]]:
    """At most `ranges` contiguous, nonempty (start, stop) ranges covering n
    rows, each starting on a VALUE_BLOCK_ROWS boundary."""
    blocks = -(-n // VALUE_BLOCK_ROWS)
    parts = max(1, min(ranges, blocks))
    edges = [min(n, blocks * p // parts * VALUE_BLOCK_ROWS) for p in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _walk_probe_matches(kernel) -> bool:
    """Whether the walk kernel reproduces the numpy path's values on the
    probe games (_probe_games), scored as one row range and as two."""
    for oracle, perms, prefix in _probe_games():
        expected = prefix_values(oracle.__call__, perms, prefix)
        for ranges in (1, 2):
            if oracle._kernel_walk_values(kernel, perms, ranges, prefix)[0] != expected:
                return False
    return True


def _probe_games():
    """(oracle, walks, prefix) of each probe game, on 133 validation rows.

    The integer and ordered-sum games, whose ties only the exact path scores
    right, take two random walks over 5 members and a sweep of one-step
    walks after a shared prefix of two. The absorbed-sum game takes a
    descending walk and a random one over 48 members, and a walk of the
    descending walk's last two members after its first 46 as the prefix, in
    walk order: only the full rounding bound, with the prefix counted in the
    size, keeps its sums off the fast path. The cancelling-prefix game takes
    a sweep after its prefix, which only a bound with the prefix in A_r
    keeps off the fast path and only an exact path that sums the prefix
    scores right. All under the three aggregation rules.
    """
    eye = np.eye(133)
    members = (2, 3, 5, 7, 11)
    walks = [tuple(np.random.default_rng(seed).permutation(members)) for seed in range(2)]
    sweep, chosen = [(2,), (5,), (11,)], (3, 7)
    subsets = [tuple(sorted(walk[:size])) for walk in walks for size in range(1, len(walk) + 1)]
    subsets += [tuple(sorted((*chosen, *walk))) for walk in sweep]
    descending = tuple(range(47, -1, -1))
    for rule, total_devices in (("accepted", None), ("explored", None), ("all", 30)):
        integer = _integer_game(133, members)
        ordered = _ordered_sum_game(133, members, subsets, rule, total_devices)
        absorbed = _absorbed_sum_game(133, descending)
        for (base, deltas, labels), perms, prefix in (
            (integer, walks, ()),
            (integer, sweep, chosen),
            (ordered, walks, ()),
            (ordered, sweep, chosen),
            (absorbed, [descending, tuple(np.random.default_rng(2).permutation(48))], ()),
            (absorbed, [descending[46:]], descending[:46]),
            (_cancelling_prefix_game(133), [(0,), (1,), (2,)], (3, 4)),
        ):
            yield CoalitionOracle(base, deltas, eye, labels, rule, total_devices), perms, prefix


def _integer_game(n, members):
    """Small-integer scores: classes tie exactly, and the first maximum must win."""
    rng = np.random.default_rng(23)
    deltas = {m: rng.integers(-2, 3, size=(n, 3)).astype(float) for m in members}
    return rng.integers(-2, 3, size=(n, 3)).astype(float), deltas, rng.integers(0, 3, size=n)


def _ordered_sum_game(n, members, subsets, rule, total_devices):
    """Scores where the member sum's order shows in the value.

    Member scores in class 1 span 17 orders of magnitude and are 0 in class
    0; row i's class-0 base equals subset i's class-1 member sum, taken in
    the subset's order and averaged, so the classes tie there and the label
    0 is predicted. A sum in any other order breaks the tie in some rows.
    Class 2 never wins.
    """
    rng = np.random.default_rng(29)
    deltas = {}
    for m in members:
        delta = np.zeros((n, 3))
        delta[:, 1] = rng.normal(size=n) * 10.0 ** rng.integers(-17, 1, size=n)
        delta[:, 2] = rng.normal(size=n)
        deltas[m] = delta
    base = np.zeros((n, 3))
    base[:, 2] = -100.0
    for i in range(n):
        subset = subsets[i % len(subsets)]
        total = deltas[subset[0]][i, 1]
        for m in subset[1:]:
            total += deltas[m][i, 1]
        base[i, 0] = total / aggregation_count(rule, len(subset), len(members), total_devices)
    return base, deltas, np.zeros(n, dtype=np.int64)


def _absorbed_sum_game(n, members):
    """Scores whose sum in ascending id order and in descending id order
    (the walk the probe takes) rank two classes apart.

    Row i has 2 classes, base scores 0 and label 0, and targets the
    descending walk's prefix of size s = 2 + i % (len(members) - 2): every
    member in it scores just under 2^-53 in both classes, except that the
    prefix's smallest id scores 1 in class 1 and its largest id 1 in class 0.
    A small score added to 1 rounds away; the small scores added first
    survive. So the ascending sum ranks class 0 first, and the walk-order sum
    ranks class 1 first by (s - 2) or (s - 1) units of 2^-53 (over the
    count), while A_r is about 2. A bound of 8u (A_r / N + beta_r), the
    certificate without its 2s term, would certify class 1 for s >= 35.
    """
    small = 2.0**-53 * (1.0 - 2.0**-20)
    walk = sorted(members, reverse=True)
    deltas = {m: np.zeros((n, 2)) for m in members}
    for i in range(n):
        prefix = walk[: 2 + i % (len(members) - 2)]
        for m in prefix:
            deltas[m][i] = small
        deltas[min(prefix)][i, 1] = 1.0
        deltas[max(prefix)][i, 0] = 1.0
    return np.zeros((n, 2)), deltas, np.zeros(n, dtype=np.int64)


def _cancelling_prefix_game(n):
    """Scores whose prefix cancels only when it is summed first.

    Members 0 to 4, 2 classes, base scores 0 and label 0. In row i, members 3
    and 4 (the prefix) score x and -x in class 1, with x a power of two from
    2^-3 to 2^3, and each of members 0, 1 and 2 scores a small e below half
    an ulp of x there. The ascending sum e + x - x is 0, so the classes tie
    and class 0 wins; the prefix-then-walk sum x - x + e is e, which ranks
    class 1 first. A_r is about 2x, and a bound that left the prefix out of
    it (A_r = e) would certify class 1; an exact path that left the prefix
    out of the subset would sum e alone.
    """
    deltas = {m: np.zeros((n, 2)) for m in range(5)}
    for i in range(n):
        x = 2.0 ** (i % 7 - 3)
        deltas[3][i, 1], deltas[4][i, 1] = x, -x
        for m in range(3):
            deltas[m][i, 1] = x * 2.0**-60 * (1 + m / 4)
    return np.zeros((n, 2)), deltas, np.zeros(n, dtype=np.int64)


def _walk_kernel():
    argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
        native.POINTERS,
        ctypes.c_int64, native.I64, ctypes.c_int64, native.I64, ctypes.c_int64, ctypes.c_int64,
        native.I64, native.F64, native.I64, native.I64, native.F64,
    ]
    return native.kernel("walk_values", argtypes, None, _walk_probe_matches)


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

    A walk's truncation point depends only on its own prefix values and the
    full-set value, so a value_fn with the method `walk_values` (see
    CoalitionOracle) values every walk's proper prefixes in one call, with
    value_fn's bits, and each walk reads them up to its truncation point; no
    call is made when every walk truncates at its first step.
    """
    players = tuple(game.players)
    if not players:
        raise ValueError("tmc_estimate needs at least one player")
    check_args(Hyperparams, delta_t=delta_t, trunc_tol=trunc_tol)
    if ledger is None:
        ledger = ContributionLedger()

    n = len(players)
    empty_value = float(game.value_fn(()))
    full_value = float(game.value_fn(tuple(sorted(players))))
    perms = [tuple(np.random.default_rng((seed, t)).permutation(players)) for t in range(delta_t)]
    table = None
    if hasattr(game.value_fn, "walk_values") and not abs(full_value - empty_value) < trunc_tol:
        table = game.value_fn.walk_values([perm[:-1] for perm in perms])  # v(N) is known
    for t_prime, perm in enumerate(perms):
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
            elif table is not None:
                current = float(table[t_prime][step])
            else:
                current = float(game.value_fn(tuple(sorted(perm[: step + 1]))))
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
