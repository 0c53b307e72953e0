"""Contribution estimation: ledger, coalition values, TMC vs exact Shapley."""
import numpy as np
import pytest
from conftest import random_game
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel.valuation import (
    CoalitionGame,
    ContributionLedger,
    coalition_value_fn,
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
    value = coalition_value_fn(phi, {0: -2.0 * np.eye(2)}, feats, labels)
    assert value(()) == 1.0


def test_coalition_value_applies_update():
    phi, feats, labels = _identity_setup()
    value = coalition_value_fn(phi, {0: -2.0 * np.eye(2)}, feats, labels)
    assert value((0,)) == 0.0


def test_coalition_value_denominators():
    phi, feats, labels = _identity_setup()
    # -1.5*I flips the model when divided by 1 but not by 2 or 3
    updates = {0: -1.5 * np.eye(2), 1: np.zeros((2, 2))}
    assert coalition_value_fn(phi, updates, feats, labels, "accepted")((0,)) == 0.0
    assert coalition_value_fn(phi, updates, feats, labels, "explored")((0,)) == 1.0
    value = coalition_value_fn(phi, updates, feats, labels, "all", total_devices=3)
    assert value((0,)) == 1.0


def test_coalition_value_argmax_ties_to_lowest_class():
    feats = np.array([[1.0, 1.0]])
    assert coalition_value_fn(np.eye(2), {}, feats, np.array([0]))(()) == 1.0


def test_coalition_value_errors():
    phi, feats, labels = _identity_setup()
    with pytest.raises(KeyError):
        coalition_value_fn(phi, {}, feats, labels)((0,))
    with pytest.raises(ValueError, match="nonempty validation"):
        coalition_value_fn(phi, {}, feats[:0], labels[:0])
    with pytest.raises(ValueError, match="total_devices"):
        coalition_value_fn(phi, {0: np.eye(2)}, feats, labels, "all")
    with pytest.raises(ValueError, match="aggregation rule"):
        coalition_value_fn(phi, {0: np.eye(2)}, feats, labels, "median")


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
