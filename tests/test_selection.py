"""Selection policies: exploration sampling, contribution cuts, greedy growth."""
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fedsel.rng import EXPLORE, substream
from fedsel.valuation import CoalitionOracle
from fedsel.selection import (
    KeepRule,
    RoundPlan,
    SelectionPolicy,
    exploit_select,
    exploration_size,
    explore_select,
    greedy_from_value_fn,
    random_aggregate_plan,
)


# -- exploration -----------------------------------------------------------------


def test_exploration_size_examples():
    assert exploration_size(100, 0.1) == 10
    assert exploration_size(100, 0.001) == 1
    assert exploration_size(100, 1.0) == 100
    assert exploration_size(7, 0.5) == 3


def test_explore_select_is_sorted_unique_subset():
    picked = explore_select(50, 0.2, substream(1, EXPLORE, 0))
    assert len(picked) == 10
    assert len(set(picked)) == 10
    assert list(picked) == sorted(picked)
    assert all(0 <= m < 50 for m in picked)


def test_explore_select_deterministic_per_stream():
    a = explore_select(40, 0.25, substream(9, EXPLORE, 3))
    b = explore_select(40, 0.25, substream(9, EXPLORE, 3))
    c = explore_select(40, 0.25, substream(9, EXPLORE, 4))
    assert a == b
    assert a != c


def test_explore_select_fraction_bounds():
    with pytest.raises(ValueError, match="c_fraction"):
        explore_select(10, 0.0, substream(0))
    with pytest.raises(ValueError, match="c_fraction"):
        explore_select(10, 1.2, substream(0))


# -- exploitation cut --------------------------------------------------------------


def test_exploit_keeps_strictly_positive():
    betas = {0: 0.3, 1: -0.1, 2: 0.0}
    assert exploit_select(betas, KeepRule("positive")) == (0,)


def test_exploit_all_negative_falls_back_to_best():
    betas = {0: -0.5, 1: -0.2, 2: -0.9}
    assert exploit_select(betas, KeepRule("positive")) == (1,)


def test_exploit_top_k():
    betas = {0: 0.1, 1: 0.5, 2: 0.3, 3: -0.2}
    assert exploit_select(betas, KeepRule("top_k", k=2)) == (1, 2)


def test_exploit_threshold():
    betas = {0: 0.1, 1: 0.5, 2: 0.3}
    assert exploit_select(betas, KeepRule("threshold", cutoff=0.3)) == (1, 2)
    # cutoff above everyone still keeps the single best
    assert exploit_select(betas, KeepRule("threshold", cutoff=9.0)) == (1,)


def test_exploit_tie_breaks_to_lowest_id():
    betas = {4: -1.0, 2: -1.0, 7: -1.0}
    assert exploit_select(betas, KeepRule("positive")) == (2,)


def test_exploit_empty_ledger_is_an_error():
    with pytest.raises(ValueError, match="at least one explored device"):
        exploit_select({}, KeepRule())


@given(
    betas=st.dictionaries(st.integers(0, 30), st.floats(-2, 2), min_size=1, max_size=12),
    scale=st.floats(0.01, 100.0),
)
def test_exploit_positive_cut_is_scale_invariant(betas, scale):
    scaled_betas = {m: scale * b for m, b in betas.items()}
    # The cut reads only signs and the ranking. Rounding can break both: a
    # subnormal beta can flush to 0.0 (5e-324 * 0.5) and two close betas can
    # round to one value, so the claim covers scalings that keep them.
    assume(all((scaled_betas[m] > 0.0) == (b > 0.0) for m, b in betas.items()))
    assume(len(set(scaled_betas.values())) == len(set(betas.values())))
    base = exploit_select(betas, KeepRule("positive"))
    scaled = exploit_select(scaled_betas, KeepRule("positive"))
    assert base == scaled


# -- keep rule / policy / plan validation --------------------------------------------


def test_keep_rule_validation():
    with pytest.raises(ValueError, match="KeepRule.kind must be one of"):
        KeepRule("best")
    with pytest.raises(ValueError, match=r"KeepRule.k must be in \[1, inf\)"):
        KeepRule("top_k", k=0)
    with pytest.raises(ValueError, match="KeepRule.k=2 is read only by KeepRule.kind='top_k'"):
        KeepRule("positive", k=2)
    with pytest.raises(
        ValueError, match="KeepRule.cutoff=0.5 is read only by KeepRule.kind='threshold'"
    ):
        KeepRule("top_k", k=2, cutoff=0.5)
    assert KeepRule("threshold", k=1, cutoff=0.5).cutoff == 0.5


def test_policy_validation():
    with pytest.raises(ValueError, match="SelectionPolicy.kind must be one of"):
        SelectionPolicy(kind="oracle")
    assert SelectionPolicy().kind == "cds"


def test_round_plan_validation():
    with pytest.raises(ValueError, match="at least one"):
        RoundPlan(explored=(0, 1), accepted=())
    with pytest.raises(ValueError, match="subset"):
        RoundPlan(explored=(0, 1), accepted=(2,))


def test_random_aggregate_plan_accepts_everyone():
    plan = random_aggregate_plan((3, 1, 2))
    assert plan.accepted == plan.explored == (3, 1, 2)
    with pytest.raises(ValueError, match="nonempty"):
        random_aggregate_plan(())


# -- greedy ---------------------------------------------------------------------


def test_greedy_picks_by_marginal_gain():
    # singleton values: 2 best; pair values: {1, 2} best
    table = {(): 0.0, (0,): 1.0, (1,): 2.0, (2,): 3.0,
             (0, 1): 3.5, (0, 2): 4.0, (1, 2): 5.5, (0, 1, 2): 6.0}
    assert greedy_from_value_fn([0, 1, 2], 1, lambda s: table[s]) == (2,)
    assert greedy_from_value_fn([0, 1, 2], 2, lambda s: table[s]) == (1, 2)
    assert greedy_from_value_fn([0, 1, 2], 3, lambda s: table[s]) == (0, 1, 2)


def test_greedy_sweeps_value_each_candidate_in_ascending_order():
    calls = []

    def value(subset):
        calls.append(subset)
        return float(sum(subset))

    assert greedy_from_value_fn([9, 2, 5], 2, value) == (5, 9)
    # each sweep values sorted(chosen + [m]) for every remaining m, ascending
    assert calls == [(), (2,), (5,), (9,), (2, 9), (5, 9)]


def test_greedy_tie_goes_to_lowest_id():
    assert greedy_from_value_fn([5, 3, 9], 1, lambda s: 1.0) == (3,)


def test_greedy_early_stop_keeps_first_pick():
    # every value is identical: no positive gain exists after the first pick
    chosen = greedy_from_value_fn([0, 1, 2], 3, lambda s: 1.0, early_stop=True)
    assert chosen == (0,)


def test_greedy_early_stop_stops_at_plateau():
    values = {(): 0.0, (0,): 2.0, (1,): 1.0, (0, 1): 2.0, (0, 2): 1.5,
              (1, 2): 1.0, (2,): 0.5, (0, 1, 2): 9.0}
    chosen = greedy_from_value_fn([0, 1, 2], 3, lambda s: values[s], early_stop=True)
    assert chosen == (0,)


def test_greedy_budget_validation():
    with pytest.raises(ValueError, match="k >= 1"):
        greedy_from_value_fn([0, 1], 0, lambda s: 0.0)
    with pytest.raises(ValueError, match="exceeds"):
        greedy_from_value_fn([0, 1], 3, lambda s: 0.0)


def test_greedy_select_on_validation_accuracy():
    # device 1's update fixes the model, device 0's ruins it
    phi = np.eye(2)
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.2], [0.2, 1.0]])
    labels = np.array([0, 1, 0, 1])
    updates = {0: -3.0 * np.eye(2), 1: np.eye(2)}
    value = CoalitionOracle(phi, updates, feats, labels)
    assert greedy_from_value_fn(updates, 1, value) == (1,)
    with pytest.raises(ValueError, match="exceeds"):
        greedy_from_value_fn(updates, 3, value)


@given(seed=st.integers(0, 200))
def test_greedy_without_early_stop_fills_budget(seed):
    rng = np.random.default_rng(seed)
    table = {}
    players = [0, 1, 2, 3]
    from itertools import combinations

    for size in range(len(players) + 1):
        for subset in combinations(players, size):
            table[subset] = float(rng.uniform())
    chosen = greedy_from_value_fn(players, 3, lambda s: table[s])
    assert len(chosen) == 3
    assert set(chosen) <= set(players)
