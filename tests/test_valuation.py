"""Contribution estimation: ledger, coalition values, TMC vs exact Shapley."""
import functools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from conftest import count_fan_outs, force_numpy, fresh_fast_paths, random_game
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel import native, products, solver, valuation
from fedsel.selection import greedy_from_value_fn
from fedsel.valuation import (
    CoalitionGame,
    CoalitionOracle,
    ContributionLedger,
    exact_shapley,
    record_marginal,
    tmc_estimate,
)


def counted(game):
    """Wrap a game so every value_fn call is logged."""
    calls = []
    inner = game.value_fn

    def value_fn(subset):
        calls.append(tuple(subset))
        return inner(subset)

    return CoalitionGame(players=game.players, value_fn=value_fn), calls


# -- ledger -------------------------------------------------------------------


def test_ledger_running_mean_exact_steps():
    ledger = ContributionLedger()
    record_marginal(ledger, 3, 0.4)
    assert ledger.beta[3] == 0.4
    assert ledger.counts[3] == 1
    record_marginal(ledger, 3, 0.0)
    assert ledger.beta[3] == 0.2
    assert ledger.counts[3] == 2
    assert ledger.get(3) == 0.2
    assert ledger.get(99) == 0.0
    assert ledger.items() == [(3, 0.2)]


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_ledger_mean_matches_batch_mean(samples):
    ledger = ContributionLedger()
    for s in samples:
        record_marginal(ledger, 0, s)
    assert ledger.counts[0] == len(samples)
    assert ledger.beta[0] == pytest.approx(np.mean(samples), rel=1e-9, abs=1e-9)


def test_ledger_mean_concentrates_on_iid_noise():
    rng = np.random.default_rng(42)
    mu, sigma, n = 0.3, 1.0, 1000
    samples = rng.normal(mu, sigma, size=n)
    ledger = ContributionLedger()
    for s in samples:
        record_marginal(ledger, 7, float(s))
    assert abs(ledger.beta[7] - mu) <= 5 * sigma / np.sqrt(n)


# -- coalition value ------------------------------------------------------------


def _identity_setup():
    phi = np.eye(2)
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    return phi, feats, labels


def test_coalition_value_empty_subset_scores_base_model():
    phi, feats, labels = _identity_setup()
    value = CoalitionOracle(phi, {0: -2.0 * np.eye(2)}, feats, labels)
    assert value(()) == 1.0


def test_coalition_value_applies_update():
    phi, feats, labels = _identity_setup()
    value = CoalitionOracle(phi, {0: -2.0 * np.eye(2)}, feats, labels)
    assert value((0,)) == 0.0


def test_coalition_value_denominators():
    phi, feats, labels = _identity_setup()
    # -1.5*I flips the model when divided by 1 but not by 2 or 3
    updates = {0: -1.5 * np.eye(2), 1: np.zeros((2, 2))}
    assert CoalitionOracle(phi, updates, feats, labels, "accepted")((0,)) == 0.0
    assert CoalitionOracle(phi, updates, feats, labels, "explored")((0,)) == 1.0
    value = CoalitionOracle(phi, updates, feats, labels, "all", total_devices=3)
    assert value((0,)) == 1.0


def test_coalition_value_argmax_ties_to_lowest_class():
    feats = np.array([[1.0, 1.0]])
    assert CoalitionOracle(np.eye(2), {}, feats, np.array([0]))(()) == 1.0


def test_coalition_value_errors():
    phi, feats, labels = _identity_setup()
    with pytest.raises(KeyError):
        CoalitionOracle(phi, {}, feats, labels)((0,))
    with pytest.raises(ValueError, match="nonempty validation"):
        CoalitionOracle(phi, {}, feats[:0], labels[:0])
    with pytest.raises(ValueError, match="total_devices"):
        CoalitionOracle(phi, {0: np.eye(2)}, feats, labels, "all")
    with pytest.raises(ValueError, match="aggregation rule"):
        CoalitionOracle(phi, {0: np.eye(2)}, feats, labels, "median")


# -- greedy sweeps ---------------------------------------------------------------
# A greedy sweep values its chosen set plus each remaining candidate: one
# walk_values call with the chosen set as the shared prefix and one-member walks.

needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler: the numpy path is the only backend"
)
RULES = (("accepted", None), ("explored", None), ("all", 11))


def oracle_game(rule="accepted", total_devices=None, n_val=301, players=(1, 4, 6, 9, 12, 15)):
    """A random 10-class oracle over odd n_val rows (a partial kernel block)."""
    rng = np.random.default_rng(n_val)
    features = rng.normal(size=(n_val, 7))
    phi = rng.normal(size=(7, 10)) * 0.3
    deltas = {m: rng.normal(size=(7, 10)) for m in players}
    labels = rng.integers(0, 10, size=n_val)
    return CoalitionOracle(phi, deltas, features, labels, rule, total_devices)


def walk_prefixes(players, walks, seed=0):
    """Every sorted prefix of `walks` random permutations, as tmc_estimate forms them."""
    rng = np.random.default_rng(seed)
    prefixes = []
    for _ in range(walks):
        perm = rng.permutation(players)
        prefixes += [tuple(sorted(perm[:size])) for size in range(1, len(players) + 1)]
    return prefixes


def kernel_unused(oracle, monkeypatch):
    def refuse(*args):
        raise AssertionError("the kernel must not run")

    monkeypatch.setattr(oracle, "_kernel_walk_values", refuse)


def walk_calls(oracle, walks, prefix=()):
    """What walk_values must return: the prefix plus each nonempty prefix of
    each walk, sorted, one call each."""
    return [
        [oracle(tuple(sorted((*prefix, *walk[:size])))) for size in range(1, len(walk) + 1)]
        for walk in walks
    ]


def sweep(players, chosen):
    """A greedy sweep's walks after `chosen`: one per remaining player."""
    return [(m,) for m in sorted(players) if m not in chosen]


def sweeps_after(players, chosen_sets):
    """(walks, prefix) of the sweep after each chosen set that leaves a candidate."""
    return [(sweep(players, c), tuple(c)) for c in chosen_sets if len(c) < len(players)]


def random_walks(players, walks, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(int(m) for m in rng.permutation(players)) for _ in range(walks)]


@needs_compiler
@pytest.mark.parametrize("rule, total_devices", RULES)
def test_batch_values_equal_calls_on_walk_prefixes(rule, total_devices):
    # a sweep after every prefix of five walks, and a walk's own chosen order
    assert valuation._walk_kernel() is not None
    players = (1, 4, 6, 9, 12, 15)
    for n_val in (1, 64, 301):  # one row, one full block, and a partial last block
        oracle = oracle_game(rule, total_devices, n_val=n_val)
        for walks, prefix in sweeps_after(players, [(), *walk_prefixes(players, 5)]):
            assert oracle.walk_values(walks, prefix) == walk_calls(oracle, walks, prefix)
        for walk in random_walks(players, 3, seed=n_val):
            chosen = walk[:3]  # in pick order, not sorted
            assert oracle.walk_values([walk[3:]], chosen) == walk_calls(oracle, [walk[3:]], chosen)
        lone = oracle_game(rule, total_devices, n_val=n_val, players=(7,))
        assert lone.walk_values([(7,), (7,)]) == [[lone((7,))], [lone((7,))]]
        assert lone.walk_values([], (7,)) == []


@needs_compiler
@pytest.mark.parametrize("n_val", [1, 64, 133, 301])
def test_batch_values_equal_calls_across_row_ranges(n_val):
    kernel = valuation._walk_kernel()
    players = (1, 4, 6, 9, 12, 15)
    blocks = -(-n_val // valuation.VALUE_BLOCK_ROWS)
    for rule, total_devices in RULES:
        oracle = oracle_game(rule, total_devices, n_val=n_val)
        for walks, prefix in sweeps_after(players, [(), (9,), (4, 12), (1, 6, 9, 15)]):
            expected = walk_calls(oracle, walks, prefix)
            for ranges in (1, 2, 3, blocks + 2):  # the last asks for more ranges than blocks
                values, exact_rows = oracle._kernel_walk_values(kernel, walks, ranges, prefix)
                assert values == expected, (ranges, rule, prefix)
                assert exact_rows == 0  # random scores: every row is certified


@needs_compiler
def test_batch_values_fan_out_only_with_enough_work(monkeypatch):
    assert valuation._walk_kernel() is not None  # its probe runs before the count starts
    ranges = count_fan_outs(monkeypatch)
    monkeypatch.setattr(native, "lanes", lambda: 3)
    oracle = oracle_game(n_val=301)  # 5 blocks
    walks, prefix = sweep((1, 4, 6, 9, 12, 15), (4, 12)), (4, 12)
    expected = walk_calls(oracle, walks, prefix)
    # 301 rows x 10 classes x (6 members + 2 x 4 values) = 42,140
    assert oracle.walk_values(walks, prefix) == expected and ranges == [1]
    monkeypatch.setattr(valuation, "RANGE_WORK", 40_000)
    assert oracle.walk_values(walks, prefix) == expected and ranges == [1, 2]
    monkeypatch.setattr(valuation, "RANGE_WORK", 20_000)
    assert oracle.walk_values(walks, prefix) == expected and ranges == [1, 2, 3]  # capped at 3


def test_row_ranges_cover_the_rows_on_block_boundaries():
    block = valuation.VALUE_BLOCK_ROWS
    for n in (1, 63, 64, 65, 133, 301, 5000):
        blocks = -(-n // block)
        for ranges in (1, 2, 3, 7, blocks + 2):
            bounds = valuation._row_ranges(n, ranges)
            assert len(bounds) == min(ranges, blocks)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
            assert all(start % block == 0 and stop > start for start, stop in bounds)


def test_run_concurrently_raises_a_thread_error_after_joining_all():
    finished = []

    def fail():
        raise ValueError("range 1 failed")

    before = threading.active_count()
    with pytest.raises(ValueError, match="range 1 failed"):
        native.run_concurrently(
            [lambda: finished.append(0), fail, lambda: finished.append(2)]
        )
    assert sorted(finished) == [0, 2]
    assert threading.active_count() == before


def _values_in_child(oracle, walks, prefix, conn):
    conn.send(oracle.walk_values(walks, prefix))
    conn.close()


@needs_compiler
def test_batch_values_finish_in_a_forked_child(monkeypatch):
    monkeypatch.setattr(native, "lanes", lambda: 3)
    monkeypatch.setattr(valuation, "RANGE_WORK", 1)
    oracle = oracle_game(n_val=301)
    walks, prefix = sweep((1, 4, 6, 9, 12, 15), (6,)), (6,)
    expected = oracle.walk_values(walks, prefix)  # the parent runs its threads first
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_values_in_child, args=(oracle, walks, prefix, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child did not finish its walk_values call"
        got = receive.recv()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert got == expected == walk_calls(oracle, walks, prefix)


@needs_compiler
def test_batch_values_on_exact_ties_pick_the_first_maximum():
    # small-integer scores tie across classes on most rows
    rng = np.random.default_rng(5)
    features = np.eye(97)
    phi = rng.integers(-1, 2, size=(97, 4)).astype(float)
    deltas = {m: rng.integers(-2, 3, size=(97, 4)).astype(float) for m in range(5)}
    labels = np.zeros(97, dtype=int)  # class 0 is the first maximum of every tie
    chosen_sets = [tuple(c) for size in range(5) for c in combinations(range(5), size)]
    for rule, total_devices in RULES:
        oracle = CoalitionOracle(phi, deltas, features, labels, rule, total_devices)
        for walks, prefix in sweeps_after(range(5), chosen_sets):
            values, exact_rows = oracle._kernel_walk_values(
                valuation._walk_kernel(), walks, 1, prefix
            )
            assert values == walk_calls(oracle, walks, prefix)
            assert exact_rows > 0
    # all-zero scores: every row ties across every class, and class 0 wins
    flat = CoalitionOracle(np.zeros((97, 4)), {0: np.zeros((97, 4))}, features, labels)
    assert flat.walk_values([(0,)]) == [[1.0]]


@needs_compiler
@pytest.mark.parametrize("rule, total_devices", RULES)
def test_batch_values_sum_members_in_subset_order(rule, total_devices):
    # row i's first class ties its second under sweep subset i only when the
    # member scores are summed in ascending id order; the kernel's probe game
    members = (2, 3, 5, 7, 11)
    cases = sweeps_after(members, [(), (5,), (3, 11), (2, 7, 11)])
    subsets = [tuple(sorted((*prefix, m))) for walks, prefix in cases for (m,) in walks]
    base, deltas, labels = valuation._ordered_sum_game(
        97, members, subsets, rule, total_devices
    )
    oracle = CoalitionOracle(base, deltas, np.eye(97), labels, rule, total_devices)
    got = [value for walks, prefix in cases for [value] in oracle.walk_values(walks, prefix)]
    assert got == [oracle(s) for s in subsets]
    reversed_order = [oracle(tuple(reversed(s))) for s in subsets]
    assert got != reversed_order  # the game does see the order


@needs_compiler
def test_batch_values_in_a_greedy_sweep():
    oracle = oracle_game("explored")
    players = sorted((1, 4, 6, 9, 12, 15))
    walks = sweep(players, (6, 12))
    assert oracle.walk_values(walks, [12, 6]) == walk_calls(oracle, walks, (6, 12))

    def plain(subset):
        return oracle(subset)

    for k in (1, 3, 6):
        for early_stop in (False, True):
            assert greedy_from_value_fn(players, k, oracle, early_stop) == greedy_from_value_fn(
                players, k, plain, early_stop
            )


def sweep_games(rule, total_devices):
    """The probe's games, each with the players greedy chooses among."""
    members = (2, 3, 5, 7, 11)
    subsets = [tuple(c) for size in range(1, 6) for c in combinations(members, size)]
    wide = tuple(range(48))
    return [
        (valuation._integer_game(97, members), members),
        (valuation._ordered_sum_game(97, members, subsets, rule, total_devices), members),
        (valuation._absorbed_sum_game(97, wide), wide),
    ]


@needs_compiler
@pytest.mark.parametrize("ranges", [1, 2])
@pytest.mark.parametrize("rule, total_devices", RULES)
def test_greedy_through_the_kernel_picks_as_per_call_greedy(
    monkeypatch, rule, total_devices, ranges
):
    assert valuation._walk_kernel() is not None  # its probe runs before the count starts
    passes = count_fan_outs(monkeypatch)
    monkeypatch.setattr(native, "lanes", lambda: ranges)
    monkeypatch.setattr(valuation, "RANGE_WORK", 1)
    sweeps = []
    walk_values = CoalitionOracle.walk_values

    def recorded(self, walks, prefix=()):
        values = walk_values(self, walks, prefix)
        sweeps.append([value for [value] in values])
        return values

    monkeypatch.setattr(CoalitionOracle, "walk_values", recorded)
    for (base, deltas, labels), players in sweep_games(rule, total_devices):
        oracle = CoalitionOracle(base, deltas, np.eye(97), labels, rule, total_devices)
        for early_stop in (False, True):
            for k in (1, 3, len(players)):
                picked = greedy_from_value_fn(players, k, oracle, early_stop)
                assert picked == greedy_from_value_fn(
                    players, k, lambda s: oracle(s), early_stop
                ), (players, early_stop, k)
    assert passes and set(passes) == {ranges}
    # some sweep's best value is shared, so the lowest id must win through the kernel
    assert any(values.count(max(values)) > 1 for values in sweeps)


def test_greedy_hands_each_sweep_to_the_batch_method():
    table = {(): 0.0, (0,): 1.0, (1,): 1.0, (2,): 0.5, (0, 1): 1.5, (0, 2): 2.0,
             (1, 2): 2.0, (0, 1, 2): 2.5}

    class Sweeping:
        def __init__(self):
            self.sweeps = []

        def __call__(self, subset):
            return table[subset]

        def walk_values(self, walks, prefix=()):
            self.sweeps.append((list(walks), prefix))
            return [[table[tuple(sorted((*prefix, *walk)))]] for walk in walks]

    sweeping = Sweeping()
    # (0,) and (1,) tie: the lowest id wins, as on the per-call path
    assert greedy_from_value_fn([0, 1, 2], 2, sweeping) == (0, 2)
    assert sweeping.sweeps == [([(0,), (1,), (2,)], ()), ([(1,), (2,)], (0,))]


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_take_the_numpy_path(monkeypatch, poison):
    for target in ("member", "base"):
        rng = np.random.default_rng(2)
        phi = rng.normal(size=(3, 4))
        deltas = {m: rng.normal(size=(3, 4)) for m in range(3)}
        (deltas[1] if target == "member" else phi)[0, 2] = poison
        features = rng.normal(size=(9, 3))
        oracle = CoalitionOracle(phi, deltas, features, rng.integers(0, 4, size=9))
        kernel_unused(oracle, monkeypatch)
        for walks, prefix in sweeps_after(range(3), [(), (0,), (0, 1), (2,)]):
            assert oracle.walk_values(walks, prefix) == walk_calls(oracle, walks, prefix)


def test_labels_the_kernel_cannot_read_take_the_numpy_path(monkeypatch):
    rng = np.random.default_rng(3)
    features = rng.normal(size=(9, 3))
    deltas = {m: rng.normal(size=(3, 4)) for m in range(3)}
    # non-integer labels never match a class index; a column of labels broadcasts
    for labels in (np.full(9, 1.5), np.full(9, 1.0), rng.integers(0, 4, size=(9, 1))):
        oracle = CoalitionOracle(rng.normal(size=(3, 4)), deltas, features, labels)
        kernel_unused(oracle, monkeypatch)
        for walks, prefix in sweeps_after(range(3), [(), (0,), (0, 2)]):
            assert oracle.walk_values(walks, prefix) == walk_calls(oracle, walks, prefix)


def test_forced_numpy_fallback_gives_the_same_values(monkeypatch):
    cases = sweeps_after((1, 4, 6, 9, 12, 15), [(), *walk_prefixes((1, 4, 6, 9, 12, 15), 4)])
    expected = [oracle_game("all", 11).walk_values(walks, prefix) for walks, prefix in cases]
    force_numpy(monkeypatch, "walk_values")
    assert valuation._walk_kernel() is None
    oracle = oracle_game("all", 11)
    kernel_unused(oracle, monkeypatch)
    assert [oracle.walk_values(walks, prefix) for walks, prefix in cases] == expected
    assert expected == [walk_calls(oracle, walks, prefix) for walks, prefix in cases]
    assert oracle.walk_values([], (1, 4)) == []


def test_batch_values_reject_unknown_members():
    with pytest.raises(KeyError):
        oracle_game().walk_values([(1,), (2,)])
    with pytest.raises(KeyError):
        oracle_game().walk_values([(1,), (4,)], (2,))


TRUNC_TOLS = (0.0, 0.001, 0.01, 0.05, float("inf"))
GRID_PLAYERS = tuple(range(3, 63, 2))


def climbing_oracle(n_val=301, dim=7, players=(1, 4, 6, 9, 12, 15)):
    """A 10-class accepted-rule oracle whose member updates each lean towards
    the model that labels the validation rows: accuracy climbs along a walk,
    so a truncating walk stops partway."""
    rng = np.random.default_rng(0)
    features = rng.normal(size=(n_val, dim))
    truth = rng.normal(size=(dim, 10))
    labels = np.argmax(features @ truth, axis=1)
    deltas = {m: 2 * truth + 3 * rng.normal(size=(dim, 10)) for m in players}
    return CoalitionOracle(rng.normal(size=(dim, 10)), deltas, features, labels)


@functools.cache
def grid_oracle():
    """A grid-sized climbing oracle: 30 members, 785 features x 10 classes,
    5,000 validation rows."""
    return climbing_oracle(5000, 785, GRID_PLAYERS)


TMC_GAMES = ("accepted-None", "explored-None", "all-11", "grid")


def tmc_game(name):
    """(oracle, players) of a TMC_GAMES entry: the random oracle under the
    aggregation rule and total the name spells, or the grid-sized oracle."""
    if name == "grid":
        return grid_oracle(), GRID_PLAYERS
    rule, total = name.split("-")
    return oracle_game(rule, None if total == "None" else int(total)), (1, 4, 6, 9, 12, 15)


def tmc_cases(names):
    """(game, trunc_tol) params: each named game at each of TRUNC_TOLS, the
    untruncated case under the game's name alone."""
    return [
        pytest.param(name, tol, id=name if tol == 0 else f"{name}-{tol}")
        for name in names
        for tol in TRUNC_TOLS
    ]


class Recorded:
    """An oracle that logs its per-subset calls and its walk_values batches."""

    def __init__(self, oracle):
        self.oracle, self.calls, self.batches = oracle, [], []

    def __call__(self, subset):
        self.calls.append(subset)
        return self.oracle(subset)

    def walk_values(self, walks, prefix=()):
        self.batches.append((list(walks), prefix))
        return self.oracle.walk_values(walks, prefix)


def tmc_run(value_fn, players, trunc_tol, delta_t=7, seed=3):
    """The ledger and the audit entries of one tmc_estimate call."""
    audit = []
    ledger = tmc_estimate(
        CoalitionGame(players, value_fn), delta_t, trunc_tol, seed, audit_sink=audit.append
    )
    return ledger, audit


@pytest.mark.parametrize("game, trunc_tol", tmc_cases(TMC_GAMES))
def test_tmc_batch_and_per_call_paths_agree(game, trunc_tol):
    oracle, players = tmc_game(game)
    calls = []

    def plain(subset):  # no batch method: one call per prefix a walk reaches
        calls.append(subset)
        return oracle(subset)

    assert repr(tmc_run(oracle, players, trunc_tol)) == repr(tmc_run(plain, players, trunc_tol))
    budget = 7 * (len(players) - 1) + 2
    assert len(calls) == budget if trunc_tol == 0 else len(calls) <= budget


def test_tmc_values_each_walk_in_order_without_a_batch_method():
    players = (3, 1, 4, 7)
    calls, audit = [], []

    def plain(subset):
        calls.append(subset)
        return len(subset) / 7 + sum(subset) / 100

    tmc_estimate(
        CoalitionGame(players, plain), delta_t=5, trunc_tol=0.0, seed=4, audit_sink=audit.append
    )
    # the empty set, the full set, then each walk's proper prefixes, walk after walk
    walks = [entry["permutation"] for entry in audit]
    prefixes = [tuple(sorted(walk[:size])) for walk in walks for size in range(1, len(players))]
    assert calls == [(), (1, 3, 4, 7), *prefixes]
    assert len(calls) == 5 * (len(players) - 1) + 2


@pytest.mark.parametrize("game, trunc_tol", tmc_cases(["accepted-None", "grid"]))
def test_tmc_batches_every_walk_in_one_call(game, trunc_tol):
    oracle, players = tmc_game(game)
    recorded = Recorded(oracle)
    _, audit = tmc_run(recorded, players, trunc_tol, delta_t=5, seed=8)
    assert recorded.calls == [(), tuple(sorted(players))]  # no per-prefix calls
    if abs(audit[0]["full_value"] - audit[0]["empty_value"]) < trunc_tol:
        assert recorded.batches == []  # every walk truncates at its first step
    else:
        # each walk but its last member: the full set's value is known
        assert recorded.batches == [([tuple(entry["permutation"][:-1]) for entry in audit], ())]


@pytest.mark.parametrize("trunc_tol", [0.01, 0.05])
def test_tmc_truncating_walks_read_the_batch_up_to_their_stops(trunc_tol):
    # the batch values every proper prefix, each walk reads it up to its
    # stopping point, and a plain value_fn is called only that far
    players = (1, 4, 6, 9, 12, 15)
    oracle = climbing_oracle(players=players)
    recorded, calls = Recorded(oracle), []

    def plain(subset):
        calls.append(subset)
        return oracle(subset)

    batched = tmc_run(recorded, players, trunc_tol)
    assert repr(batched) == repr(tmc_run(plain, players, trunc_tol))
    ledger, audit = batched
    n = len(players)
    stops = [entry["truncated_from"] for entry in audit]
    assert any(stop is not None and 0 < stop < n - 1 for stop in stops)  # mid-walk
    assert len(calls) == 2 + sum(n - 1 if stop is None else min(stop, n - 1) for stop in stops)
    assert recorded.calls == [(), players] and len(recorded.batches) == 1
    assert set(ledger.counts.values()) == {7}


# -- walk values -----------------------------------------------------------------


@needs_compiler
@pytest.mark.parametrize("n_val", [1, 64, 133, 301])
def test_walk_values_equal_calls_across_rules_and_row_ranges(n_val):
    kernel = valuation._walk_kernel()
    assert kernel is not None
    blocks = -(-n_val // valuation.VALUE_BLOCK_ROWS)
    for rule, total_devices in RULES:
        oracle = oracle_game(rule, total_devices, n_val=n_val)
        for players in ((9,), (4, 12), (1, 4, 6, 9, 12, 15)):
            perms = random_walks(players, 4, seed=len(players))
            expected = walk_calls(oracle, perms)
            assert oracle.walk_values(perms) == expected
            for ranges in (1, 2, blocks + 2):  # the last asks for more ranges than blocks
                values, exact_rows = oracle._kernel_walk_values(kernel, perms, ranges)
                assert values == expected, (rule, players, ranges)
                assert exact_rows == 0  # random scores: every row is certified


@needs_compiler
@pytest.mark.parametrize("rule, total_devices", RULES)
def test_walk_values_score_tie_games_on_the_exact_path(rule, total_devices):
    kernel = valuation._walk_kernel()
    members = (2, 3, 5, 7, 11)
    perms = random_walks(members, 3, seed=4)
    chosen, candidates = (3, 7), sweep(members, (3, 7))
    subsets = [tuple(sorted(perm[:size])) for perm in perms for size in range(1, len(perm) + 1)]
    subsets += [tuple(sorted((*chosen, m))) for (m,) in candidates]
    integer = valuation._integer_game(97, members)
    ordered = valuation._ordered_sum_game(97, members, subsets, rule, total_devices)
    descending = tuple(range(47, -1, -1))
    absorbed = valuation._absorbed_sum_game(97, descending)
    for (base, deltas, labels), walks, prefix in (
        (integer, perms, ()),
        (integer, candidates, chosen),
        (ordered, perms, ()),
        (ordered, candidates, chosen),
        (absorbed, [descending, *random_walks(descending, 2)], ()),
        (absorbed, [descending[46:]], descending[:46]),
        (valuation._cancelling_prefix_game(97), sweep(range(5), (3, 4)), (3, 4)),
    ):
        oracle = CoalitionOracle(base, deltas, np.eye(97), labels, rule, total_devices)
        expected = walk_calls(oracle, walks, prefix)
        for ranges in (1, 2):
            values, exact_rows = oracle._kernel_walk_values(kernel, walks, ranges, prefix)
            assert values == expected
            assert exact_rows > 0


@needs_compiler
def test_absorbed_sum_game_separates_the_two_summation_orders():
    # at the longest prefix the walk-order sum ranks class 1 first by 46
    # units of 2^-53, more than a bound without its 2s term allows (32 units
    # with A_r = 2)
    wide = tuple(range(48))
    _, deltas, _ = valuation._absorbed_sum_game(46, wide)
    prefix = wide[::-1][:47]  # row 45 targets the walk's prefix of size 47
    ascending = sum_in_order([deltas[m][45] for m in sorted(prefix)])
    walked = sum_in_order([deltas[m][45] for m in prefix])
    assert ascending[0] > ascending[1] == 1.0
    assert walked[0] == 1.0 and walked[1] == 1.0 + 46 * 2.0**-53


def sum_in_order(rows):
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


@needs_compiler
@pytest.mark.parametrize("scale", [1e300, 1e-310])
def test_walk_values_equal_calls_at_extreme_scales(scale):
    rng = np.random.default_rng(11)
    n, players = 133, (3, 5, 8, 13, 21, 34)
    base = rng.normal(size=(n, 4)) * scale
    deltas = {m: rng.normal(size=(n, 4)) * scale for m in players}
    labels = rng.integers(0, 4, size=n)
    perms = random_walks(players, 6, seed=5)
    for rule, total_devices in RULES:
        oracle = CoalitionOracle(base, deltas, np.eye(n), labels, rule, total_devices)
        assert np.abs(oracle._members[0]).max() == np.abs(deltas[3]).max()
        expected = walk_calls(oracle, perms)
        for ranges in (1, 2):
            values, _ = oracle._kernel_walk_values(valuation._walk_kernel(), perms, ranges)
            assert values == expected, (rule, ranges)


@needs_compiler
def test_walk_values_fan_out_only_with_enough_work(monkeypatch):
    assert valuation._walk_kernel() is not None  # its probe runs before the count starts
    ranges = count_fan_outs(monkeypatch)
    monkeypatch.setattr(native, "lanes", lambda: 3)
    oracle = oracle_game(n_val=301)  # 5 blocks
    perms = random_walks((1, 4, 6, 9, 12, 15), 5)
    expected = walk_calls(oracle, perms)
    # 301 rows x 10 classes x (6 members + 2 x 5 walks x 6 prefixes) = 198,660
    assert oracle.walk_values(perms) == expected and ranges == [1]
    monkeypatch.setattr(valuation, "RANGE_WORK", 100_000)
    assert oracle.walk_values(perms) == expected and ranges == [1, 2]
    monkeypatch.setattr(valuation, "RANGE_WORK", 10_000)
    assert oracle.walk_values(perms) == expected and ranges == [1, 2, 3]  # capped at 3 threads


@needs_compiler
def test_a_call_runs_at_most_two_ranges_per_usable_cpu(monkeypatch):
    assert valuation._walk_kernel() is not None  # its probe runs before the count starts
    ranges = count_fan_outs(monkeypatch)
    monkeypatch.setattr(valuation, "RANGE_WORK", 1)
    oracle = oracle_game(n_val=301)  # 5 blocks
    perms = random_walks((1, 4, 6, 9, 12, 15), 5)
    expected = walk_calls(oracle, perms)
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(native.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert native.lanes() == 2 * len(cpus)
        assert oracle.walk_values(perms) == expected
    assert ranges == [2, 4, 5]  # never more ranges than blocks


@needs_compiler
def test_walk_probe_scores_two_row_ranges_on_one_cpu(monkeypatch):
    monkeypatch.setattr(native.os, "sched_getaffinity", lambda pid: {0})
    fresh_fast_paths(monkeypatch)
    ranges = count_fan_outs(monkeypatch)
    assert valuation._walk_kernel() is not None
    assert max(ranges) >= 2


@needs_compiler
def test_walk_probe_mismatch_disables_only_the_walk_kernel(monkeypatch):
    exact = CoalitionOracle._kernel_walk_values

    def one_row_off(self, *args):  # stands in for a miscompiled kernel
        values, exact_rows = exact(self, *args)
        return [[v + 1.0 / len(self._labels) for v in walk] for walk in values], exact_rows

    fresh_fast_paths(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(CoalitionOracle, "_kernel_walk_values", one_row_off)
        assert valuation._walk_kernel() is None
    assert valuation._walk_kernel() is None  # probed once per process
    assert solver._kernel() is not None
    assert native.FAST_PATHS["walk_values"] == {"status": "numpy", "reason": "probe mismatch"}
    assert native.FAST_PATHS["sdca_job"] == {"status": "c", "reason": None}
    assert native.FAST_PATHS["library"]["status"] == "c"


def test_walk_values_reject_bad_walks():
    oracle = oracle_game()
    with pytest.raises(ValueError, match="one length"):
        oracle.walk_values([(1, 4, 6), (1, 4)])
    with pytest.raises(ValueError, match="at most once"):
        oracle.walk_values([(1, 4, 1)])
    with pytest.raises(ValueError, match="none of them in the prefix"):
        oracle.walk_values([(1,), (4,)], (4, 9))  # a candidate already chosen
    with pytest.raises(ValueError, match="at most once"):
        oracle.walk_values([(1,)], (4, 4))
    with pytest.raises(KeyError):
        oracle.walk_values([(1, 2, 4)])
    assert oracle.walk_values([]) == []


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_walk_values_with_non_finite_scores_take_the_numpy_path(monkeypatch, poison):
    rng = np.random.default_rng(2)
    deltas = {m: rng.normal(size=(3, 4)) for m in range(3)}
    deltas[1][0, 2] = poison
    oracle = CoalitionOracle(
        rng.normal(size=(3, 4)), deltas, rng.normal(size=(9, 3)), rng.integers(0, 4, size=9)
    )
    kernel_unused(oracle, monkeypatch)
    perms = [(0, 1, 2), (2, 0, 1)]
    assert oracle.walk_values(perms) == walk_calls(oracle, perms)


def test_forced_numpy_fallback_gives_the_same_walk_values(monkeypatch):
    perms = random_walks((1, 4, 6, 9, 12, 15), 4)
    expected = oracle_game("explored").walk_values(perms)
    force_numpy(monkeypatch, "walk_values")
    oracle = oracle_game("explored")
    kernel_unused(oracle, monkeypatch)
    assert oracle.walk_values(perms) == expected == walk_calls(oracle, perms)


# -- member scores ----------------------------------------------------------------

# Runs in a child with a fixed BLAS thread count. For each member count P it
# builds an oracle on the grid's validation shape (5000 x 785) and reports
# whether its class-major base and member scores hold the bytes of the
# transposed per-member products, which layouts its products ran in, and
# the shapes the probe rejected.
MEMBER_SCORES_CHILD = """
import json, sys
import numpy as np
from fedsel import native, products, valuation
classes = int(sys.argv[1])
rng = np.random.default_rng(classes)
features = rng.normal(size=(5000, 785))
labels = rng.integers(0, classes, size=5000)
report = {"threads": native.blas()["threads"], "cases": {}}
for members in (1, 10, 20, 21, 30, 100):
    phi = rng.normal(size=(785, classes))
    deltas = {m: rng.normal(size=(785, classes)) for m in range(members)}
    before = products.LAYOUTS.copy()
    oracle = valuation.CoalitionOracle(phi, deltas, features, labels)
    expected = [(features @ delta).T for delta in (phi, *deltas.values())]
    report["cases"][members] = {
        "equal": all(
            np.array_equal(a.view(np.uint64), b.view(np.uint64))
            for a, b in zip([oracle._base, *oracle._members], expected, strict=True)
        ),
        "layouts": sorted(products.LAYOUTS - before),
        "rejected": [shape for shape, ok in products._SHAPES.items() if not ok],
    }
print(json.dumps(report))
"""


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("classes", [2, 3, 10])
def test_member_scores_equal_per_member_products(threads, classes):
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": str(Path(valuation.__file__).parents[1]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", MEMBER_SCORES_CHILD, str(classes)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["threads"] in (threads, None)
    for members, case in report["cases"].items():
        # a rejected shape leaves its chunks on per-member products, so the
        # bytes are equal either way
        assert case["equal"], (members, case)
        blocks = int(members) + 1  # the base and the members
        chunks = -(-blocks // valuation.STACKED_MEMBERS)
        sizes = {blocks * (c + 1) // chunks - blocks * c // chunks for c in range(chunks)}
        rejected = {tuple(shape)[3] for shape in case["rejected"]} & sizes
        layouts = {size in rejected for size in sizes}
        assert case["layouts"] == sorted({"row_major" if r else "k_major" for r in layouts}), (
            members, case,
        )


def member_deltas(members, rows, classes, seed=0):
    rng = np.random.default_rng(seed)
    return {m: rng.normal(size=(rows, classes)) for m in range(members)}


def test_stacked_member_scores_keep_each_members_columns(monkeypatch):
    # identity features: every score is its delta entry exactly, whatever the
    # BLAS, so a stacked product may be forced without a probe
    deltas = member_deltas(45, 31, 3)
    phi = np.arange(93.0).reshape(31, 3)
    # phi and 45 members go in chunks of 15, 15 and 16
    monkeypatch.setattr(products, "_SHAPES", {(31, 31, 3, 15): True, (31, 31, 3, 16): True})
    monkeypatch.setattr(products, "_same_bytes", None)  # no probe may run
    before = products.LAYOUTS.copy()
    oracle = CoalitionOracle(phi, deltas, np.eye(31), np.zeros(31, dtype=int))
    assert products.LAYOUTS - before == {"k_major": 3}
    assert np.array_equal(oracle._base, phi.T) and oracle._base.flags.c_contiguous
    assert len(oracle._members) == 45
    assert np.array_equal(np.stack(oracle._members), np.stack([d.T for d in deltas.values()]))
    assert all(member.flags.c_contiguous for member in oracle._members)
    assert oracle._kernel_safe


def recording_probe(probes, verdict):
    """A probe comparison that records each chunk's size and returns verdict."""
    def same_bytes(a, b):
        probes.append(len(a))
        return verdict

    return same_bytes


def test_member_chunks_are_near_equal_and_probed_once_per_shape(monkeypatch):
    probes = []
    monkeypatch.setattr(products, "_SHAPES", {})
    monkeypatch.setattr(products, "_same_bytes", recording_probe(probes, True))
    features = np.random.default_rng(1).normal(size=(40, 9))
    for members in (21, 21, 41, 1):
        CoalitionOracle(np.zeros((9, 4)), member_deltas(members, 9, 4), features, np.zeros(40, int))
    # phi and 21 members go in chunks of 11 and 11, phi and 41 members in
    # chunks of 14, and phi and 1 member in one chunk of 2; the second
    # 21-member oracle is not probed
    assert probes == [11, 14, 2]
    assert set(products._SHAPES) == {(40, 9, 4, size) for size in (11, 14, 2)}


def test_probe_mismatch_keeps_per_member_products(monkeypatch):
    rng = np.random.default_rng(7)
    features = rng.normal(size=(301, 7))
    phi = rng.normal(size=(7, 10)) * 0.3
    labels = rng.integers(0, 10, size=301)
    deltas = member_deltas(21, 7, 10)
    perms = random_walks(tuple(deltas), 3)
    sweeps = sweeps_after(tuple(deltas), [(), *walk_prefixes(tuple(deltas), 2)])
    reference = CoalitionOracle(phi, deltas, features, labels, "explored")
    valuation._walk_kernel()  # binds the kernel: its probe builds oracles too
    probes = []
    monkeypatch.setattr(products, "_SHAPES", {})
    monkeypatch.setattr(products, "_same_bytes", recording_probe(probes, False))
    expected = np.stack([(features @ delta).T for delta in deltas.values()])
    for _ in range(2):
        before = products.LAYOUTS.copy()
        oracle = CoalitionOracle(phi, deltas, features, labels, "explored")
        assert products.LAYOUTS - before == {"row_major": 2}  # phi and 21 members in 2 chunks
        assert probes == [11]  # each shape is probed once per process
        assert products._SHAPES == {(301, 7, 10, 11): False}
        assert np.array_equal(oracle._base.view(np.uint64), (features @ phi).T.view(np.uint64))
        assert np.array_equal(np.stack(oracle._members).view(np.uint64), expected.view(np.uint64))
        for walks, prefix in sweeps:
            assert oracle.walk_values(walks, prefix) == reference.walk_values(walks, prefix)
        assert oracle.walk_values(perms) == reference.walk_values(perms)


# -- exact Shapley ---------------------------------------------------------------


def test_exact_shapley_two_player_hand_values():
    vals = {(): 0.0, (0,): 1.0, (1,): 2.0, (0, 1): 4.0}
    game = CoalitionGame(players=(0, 1), value_fn=lambda s: vals[tuple(sorted(s))])
    shapley = exact_shapley(game)
    assert shapley[0] == 1.5
    assert shapley[1] == 2.5


def test_exact_shapley_symmetric_game_splits_evenly():
    n = 4
    game = CoalitionGame(players=tuple(range(n)), value_fn=lambda s: len(s) / n)
    shapley = exact_shapley(game)
    for p in range(n):
        assert shapley[p] == pytest.approx(1 / n, abs=1e-12)


def test_exact_shapley_dummy_player_gets_zero():
    # player 2 never changes the value
    game = CoalitionGame(
        players=(0, 1, 2),
        value_fn=lambda s: float(len([p for p in s if p != 2])),
    )
    assert exact_shapley(game)[2] == 0.0


def test_exact_shapley_efficiency_and_linearity():
    a = random_game(5, 21)
    b = random_game(5, 22)
    sa, sb = exact_shapley(a), exact_shapley(b)
    total = sum(sa.values())
    assert total == pytest.approx(a.value_fn(a.players) - a.value_fn(()), abs=1e-12)

    mix = CoalitionGame(
        players=a.players,
        value_fn=lambda s: 2.0 * a.value_fn(s) - 0.5 * b.value_fn(s),
    )
    sm = exact_shapley(mix)
    for p in a.players:
        assert sm[p] == pytest.approx(2.0 * sa[p] - 0.5 * sb[p], abs=1e-12)


def test_exact_shapley_guards():
    with pytest.raises(ValueError, match="at least one"):
        exact_shapley(CoalitionGame(players=(), value_fn=lambda s: 0.0))
    with pytest.raises(ValueError, match="exceeds the"):
        exact_shapley(CoalitionGame(players=tuple(range(11)), value_fn=lambda s: 0.0))


# -- truncated Monte-Carlo ---------------------------------------------------------


def test_tmc_validation_errors():
    game = random_game(3, 1)
    with pytest.raises(ValueError, match="at least one player"):
        tmc_estimate(CoalitionGame(players=(), value_fn=lambda s: 0.0), 1, 0.0, 0)
    with pytest.raises(ValueError, match="delta_t"):
        tmc_estimate(game, 0, 0.0, 0)
    with pytest.raises(ValueError, match="trunc_tol"):
        tmc_estimate(game, 1, -0.1, 0)


def test_tmc_deterministic_in_seed():
    game = random_game(4, 2)
    a = tmc_estimate(game, delta_t=10, trunc_tol=0.0, seed=3)
    b = tmc_estimate(game, delta_t=10, trunc_tol=0.0, seed=3)
    c = tmc_estimate(game, delta_t=10, trunc_tol=0.0, seed=4)
    assert a.beta == b.beta and a.counts == b.counts
    assert a.beta != c.beta


def test_tmc_call_budget_without_truncation():
    game, calls = counted(random_game(5, 11))
    tmc_estimate(game, delta_t=3, trunc_tol=0.0, seed=1)
    # empty and full set once per call, one prefix per non-final step
    assert len(calls) == 3 * (len(game.players) - 1) + 2
    assert calls[:2] == [(), tuple(sorted(game.players))]


def test_tmc_infinite_tolerance_truncates_everything():
    game, calls = counted(random_game(4, 12))
    audit = []
    ledger = tmc_estimate(
        game, delta_t=5, trunc_tol=float("inf"), seed=2, audit_sink=audit.append
    )
    assert all(v == 0.0 for v in ledger.beta.values())
    assert all(c == 5 for c in ledger.counts.values())
    # only the empty and full sets are ever evaluated, once each
    assert len(calls) == 2
    assert {len(s) for s in calls} == {0, 4}
    # every audit entry still carries both values
    expected = (game.value_fn(()), game.value_fn(tuple(sorted(game.players))))
    assert [(e["empty_value"], e["full_value"]) for e in audit] == [expected] * 5
    assert [entry["truncated_from"] for entry in audit] == [0] * 5


def test_tmc_efficiency_per_round():
    game = random_game(5, 13)
    ledger = tmc_estimate(game, delta_t=8, trunc_tol=0.0, seed=6)
    total = sum(ledger.beta[p] * ledger.counts[p] for p in game.players)
    expected = 8 * (game.value_fn(game.players) - game.value_fn(()))
    assert total == pytest.approx(expected, abs=1e-9)


def test_tmc_audit_trail_shape():
    game = random_game(3, 14)
    audit = []
    tmc_estimate(game, delta_t=2, trunc_tol=0.0, seed=7, audit_sink=audit.append)
    assert len(audit) == 2
    for entry in audit:
        assert sorted(entry["permutation"]) == [0, 1, 2]
        assert set(entry["marginals"]) == {"0", "1", "2"}
        assert entry["truncated_from"] is None
        assert sum(entry["marginals"].values()) == pytest.approx(
            entry["full_value"] - entry["empty_value"], abs=1e-12
        )


def test_tmc_two_player_game_converges():
    vals = {(): 0.0, (0,): 1.0, (1,): 2.0, (0, 1): 4.0}
    game = CoalitionGame(players=(0, 1), value_fn=lambda s: vals[tuple(sorted(s))])
    ledger = tmc_estimate(game, delta_t=400, trunc_tol=0.0, seed=5)
    assert ledger.beta[0] == pytest.approx(1.5, abs=0.1)
    assert ledger.beta[1] == pytest.approx(2.5, abs=0.1)


@pytest.mark.parametrize("game_seed", [11, 12, 13])
def test_tmc_matches_exact_shapley(game_seed):
    game = random_game(5, game_seed)
    exact = exact_shapley(game)
    ledger = tmc_estimate(game, delta_t=2000, trunc_tol=0.0, seed=game_seed + 100)
    for p in game.players:
        assert ledger.beta[p] == pytest.approx(exact[p], abs=0.05)


def test_tmc_ledger_accumulates_across_calls():
    game = CoalitionGame(players=(0,), value_fn=lambda s: float(len(s)))
    ledger = tmc_estimate(game, delta_t=1, trunc_tol=0.0, seed=0)
    assert ledger.beta[0] == 1.0
    # an existing ledger keeps its history: mean of 1.0 and 1.0 stays 1.0, count grows
    ledger = tmc_estimate(game, delta_t=1, trunc_tol=0.0, seed=1, ledger=ledger)
    assert ledger.counts[0] == 2
    assert ledger.beta[0] == 1.0


@settings(deadline=None, max_examples=25)
@given(n=st.integers(2, 5), seed=st.integers(0, 50))
def test_tmc_truncation_never_inflates_counts(n, seed):
    game = random_game(n, seed)
    ledger = tmc_estimate(game, delta_t=4, trunc_tol=0.05, seed=seed)
    assert set(ledger.counts.values()) == {4}
    assert set(ledger.beta) == set(game.players)
