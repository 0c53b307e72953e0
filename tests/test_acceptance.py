"""Shipped acceptance criteria, one test each, reported PASS/FAIL at exit.

Criteria 5-7 share one experiment grid on the session corpus (real MNIST when
FEDSEL_DATA_DIR points at it, the bundled surrogate otherwise): 100 devices,
2-shard unbalanced non-iid partition, C=0.1, E=10, lambda=1/D, 14 rounds.
"""
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from conftest import random_game, record_criterion

import fedsel
from fedsel.cost import DeviceProfile, compute_time, comm_time, round_cost, uplink_rate
from fedsel.data import DeviceDataset, generate_synthetic, load_idx_split
from fedsel.losses import SmoothedHinge, SquaredLoss
from fedsel.orchestrator import Experiment, rounds_to_target
from fedsel.rng import substream
from fedsel.selection import SelectionPolicy
from fedsel.solver import Hyperparams, device_update, duality_gap
from fedsel.valuation import CoalitionGame, exact_shapley, tmc_estimate

TARGET = 0.80


def test_criterion_1_exact_shapley_axioms():
    start = time.monotonic()
    worst_eff = worst_sym = worst_dummy = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, 4))
        base = {}
        for size in range(k + 1):
            for subset in combinations(range(k), size):
                base[subset] = float(rng.uniform())
        bonus = np.sort(rng.uniform(size=2))
        # player k is a dummy; players k+1 and k+2 are interchangeable twins
        dummy, s1, s2 = k, k + 1, k + 2
        players = tuple(range(k + 3))

        def value(s, base=base, bonus=bonus, k=k, s1=s1, s2=s2):
            s = set(s)
            core = base[tuple(sorted(p for p in s if p < k))]
            twins = len(s & {s1, s2})
            return core + (0.0, float(bonus[0]), float(bonus[1]))[twins]

        beta = exact_shapley(CoalitionGame(players=players, value_fn=value))
        worst_eff = max(worst_eff, abs(sum(beta.values()) - (value(players) - value(()))))
        worst_sym = max(worst_sym, abs(beta[s1] - beta[s2]))
        worst_dummy = max(worst_dummy, abs(beta[dummy]))
    elapsed = time.monotonic() - start
    ok = (
        worst_eff <= 1e-12 and worst_sym <= 1e-12 and worst_dummy <= 1e-12
        and elapsed < 5.0
    )
    record_criterion(
        1, ok,
        f"50 games: efficiency {worst_eff:.1e}, symmetry {worst_sym:.1e}, "
        f"dummy {worst_dummy:.1e} (all <= 1e-12), {elapsed:.1f}s < 5s",
    )
    assert ok


def test_criterion_2_tmc_agrees_with_exact_shapley():
    start = time.monotonic()
    hits, worsts = 0, []
    for i in range(20):
        game = random_game(5, 2000 + i)
        exact = exact_shapley(game)
        ledger = tmc_estimate(game, delta_t=2000, trunc_tol=0.0, seed=3000 + i)
        worst = max(abs(ledger.beta[p] - exact[p]) for p in game.players)
        worsts.append(worst)
        hits += worst <= 0.05
    elapsed = time.monotonic() - start
    ok = hits >= 19 and elapsed < 30.0
    record_criterion(
        2, ok,
        f"{hits}/20 games within 0.05 of exact (worst {max(worsts):.4f}), "
        f"{elapsed:.1f}s < 30s",
    )
    assert ok


def test_criterion_3_truncation_economy():
    # saturating game: the marginal at position j is 0.7 * 0.3^j, so every
    # marginal from position 4 on sits below eps = 0.01
    n, rounds, eps = 8, 50, 0.01
    players = tuple(range(n))

    def game_with_counter():
        calls = []

        def value(s):
            calls.append(1)
            return 1.0 - 0.3 ** len(s)

        return CoalitionGame(players=players, value_fn=value), calls

    full_game, full_calls = game_with_counter()
    trunc_game, trunc_calls = game_with_counter()
    full = tmc_estimate(full_game, delta_t=rounds, trunc_tol=0.0, seed=9)
    trunc = tmc_estimate(trunc_game, delta_t=rounds, trunc_tol=eps, seed=9)
    drift = max(abs(full.beta[p] - trunc.beta[p]) for p in players)
    ok = len(trunc_calls) < len(full_calls) and drift <= eps
    record_criterion(
        3, ok,
        f"value calls {len(trunc_calls)} < {len(full_calls)} untruncated, "
        f"max per-device beta drift {drift:.5f} <= {eps}",
    )
    assert ok


def test_criterion_4_duality_gap_correctness():
    hinge = SmoothedHinge(1.0)
    min_gap, worst_solved = float("inf"), 0.0
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        d, n = int(rng.integers(2, 21)), int(rng.integers(10, 201))
        feats = rng.normal(size=(n, d))
        labels = rng.choice([-1.0, 1.0], size=n)
        lam = 1.0 / n
        for _ in range(3):
            alpha = labels * rng.uniform(0.0, 1.0, size=n)
            min_gap = min(min_gap, duality_gap(alpha, feats, labels, hinge, lam))
        min_gap = min(min_gap, duality_gap(np.zeros(n), feats, labels, hinge, lam))

        device = DeviceDataset(0, feats, labels, np.arange(n))
        hp = Hyperparams(loss="smoothed_hinge", reg_lambda=lam, epochs=200)
        update = device_update(
            device, np.zeros(d), np.zeros(n), hp, substream(100 + i), total_samples=n
        )
        worst_solved = max(
            worst_solved, duality_gap(update.rho, feats, labels, hinge, lam)
        )

    # finite differences of each conjugate against the analytic maximizer
    worst_fd = 0.0
    h = 1e-6

    def central(fn, u):
        return (fn(u + h) - fn(u - h)) / (2 * h)

    for y in (-1.0, 1.0):
        for mag in np.linspace(0.1, 0.9, 9):
            u = -mag * y  # interior of the smoothed-hinge dual domain
            numeric = central(lambda v: float(hinge.conjugate(np.asarray(v), y)), u)
            analytic = y * (1.0 + u * y)
            worst_fd = max(worst_fd, abs(numeric - analytic) / abs(analytic))
        squared = SquaredLoss()
        for u in (-1.7, -1.2, -0.6, 0.3, 0.9, 1.8):
            numeric = central(lambda v: float(squared.conjugate(np.asarray(v), y)), u)
            analytic = u + y
            worst_fd = max(worst_fd, abs(numeric - analytic) / abs(analytic))

    ok = min_gap >= -1e-9 and worst_solved < 1e-6 and worst_fd < 1e-6
    record_criterion(
        4, ok,
        f"20 instances: min gap {min_gap:.2e} >= -1e-9, worst gap after 200 "
        f"passes {worst_solved:.2e} < 1e-6, conjugate FD rel err {worst_fd:.1e} < 1e-6",
    )
    assert ok


# -- criteria 5-7: shared non-iid image grid ---------------------------------------


@pytest.fixture(scope="module")
def paper_grid(idx_corpus):
    corpus_dir, tag = idx_corpus
    start = time.monotonic()
    rows = []
    for seed in (1, 2, 3, 4, 5):
        split = load_idx_split(
            corpus_dir,
            num_devices=100,
            shards_per_device=2,
            seed=seed,
            validation_size=5000,
            device_test_fraction=0.2,
            unbalanced=True,
        )
        hyper = Hyperparams(
            loss="smoothed_hinge", epochs=10,
            c_fraction=0.1, delta_t=1, trunc_tol=0.0, seed=seed,
        )

        def crossing(result):
            reached = rounds_to_target(result.metrics, TARGET)
            cost = next(
                (m.cum_cost_s for m in result.metrics if m.round_index == reached),
                float("nan"),
            )
            return reached, cost

        cds = Experiment(split, hyper, SelectionPolicy(kind="cds")).run(14)
        rnd = Experiment(split, hyper, SelectionPolicy(kind="random")).run(14)
        greedy = Experiment(
            split, hyper, SelectionPolicy(kind="greedy"), stop_at_accuracy=TARGET
        ).run(14)

        row = {"seed": seed}
        row["cds_r80"], row["cds_cost80"] = crossing(cds)
        row["rnd_r80"], row["rnd_cost80"] = crossing(rnd)
        row["greedy_r80"], row["greedy_cost80"] = crossing(greedy)
        row["cds_best"] = max(m.test_acc for m in cds.metrics)
        row["pers_diff"] = (
            cds.metrics[-1].personalization_mean - rnd.metrics[-1].personalization_mean
        )
        rows.append(row)
        del split, cds, rnd, greedy
    return {"rows": rows, "tag": tag, "elapsed": time.monotonic() - start}


def test_criterion_5_noniid_accuracy_level(paper_grid):
    best = sorted(row["cds_best"] for row in paper_grid["rows"][:3])
    median_best = best[1]
    ok = median_best >= 0.85 and paper_grid["elapsed"] < 1800
    record_criterion(
        5, ok,
        f"cds best accuracy, median over seeds 1-3: {median_best:.4f} >= 0.85 "
        f"within 14 rounds ({paper_grid['tag']} corpus; grid "
        f"{paper_grid['elapsed']:.0f}s < 1800s)",
    )
    assert ok


def test_criterion_6_convergence_ordering(paper_grid):
    rows = paper_grid["rows"]
    crossings = [
        (row["cds_r80"], row["rnd_r80"], row["greedy_r80"]) for row in rows
    ]
    all_crossed = all(None not in triple for triple in crossings)
    if all_crossed:
        cds_rounds = float(np.median([row["cds_r80"] for row in rows]))
        rnd_rounds = float(np.median([row["rnd_r80"] for row in rows]))
        cds_cost = float(np.median([row["cds_cost80"] for row in rows]))
        greedy_cost = float(np.median([row["greedy_cost80"] for row in rows]))
        ok = cds_rounds <= rnd_rounds and greedy_cost >= cds_cost
        detail = (
            f"median rounds-to-80%: cds {cds_rounds:g} <= random {rnd_rounds:g}; "
            f"median cost at crossing: greedy {greedy_cost:.2f}s >= cds {cds_cost:.2f}s"
        )
    else:
        ok = False
        detail = f"a policy missed the 80% target within 14 rounds: {crossings}"
    record_criterion(6, ok, detail)
    assert ok


def test_criterion_7_personalization_noninferiority(paper_grid):
    diffs = [row["pers_diff"] for row in paper_grid["rows"]]
    median_diff = float(np.median(diffs))
    ok = median_diff >= -0.005
    record_criterion(
        7, ok,
        f"median signed per-device holdout diff (cds - random) "
        f"{median_diff * 100:+.2f}pp >= -0.50pp "
        f"(per seed: {[f'{d * 100:+.2f}' for d in diffs]})",
    )
    assert ok


def test_criterion_8_exploitation_rounds_cost_nothing():
    costs_equal = True
    acc_drops = []
    for seed in (1, 2, 3):
        split = generate_synthetic(
            dim=12, train_size=600, num_devices=10, separation=2.5, seed=seed
        )
        results = {}
        for delta_t in (1, 5):
            hyper = Hyperparams(
                loss="smoothed_hinge", epochs=5, c_fraction=0.3,
                delta_t=delta_t, seed=seed,
            )
            results[delta_t] = Experiment(split, hyper, SelectionPolicy(kind="cds")).run(20)
        costs_equal &= [m.round_cost_s for m in results[1].metrics] == [
            m.round_cost_s for m in results[5].metrics
        ]
        acc_drops.append(
            results[1].metrics[-1].test_acc - results[5].metrics[-1].test_acc
        )
    median_drop = float(np.median(acc_drops))
    ok = costs_equal and median_drop <= 0.005
    record_criterion(
        8, ok,
        f"delta_t 1 vs 5: per-round device costs exactly equal: {costs_equal}; "
        f"median final-accuracy drop {median_drop * 100:+.2f}pp <= 0.50pp",
    )
    assert ok


def test_criterion_9_cli_rerun_is_byte_identical(tmp_path):
    base = [
        sys.executable, "-m", "fedsel", "run", "--quiet", "--seed", "11",
        "--set", "data.source=synthetic",
        "--set", "data.num_devices=8",
        "--set", "data.synthetic_train_size=400",
        "--set", "data.synthetic_dim=8",
        "--set", "orchestrator.rounds=5",
        "--set", "selection.c_fraction=0.5",
    ]
    # the children import the sources this test imports
    env = {**os.environ, "PYTHONPATH": str(Path(fedsel.__file__).parents[1])}
    bodies = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [*base, "--out", str(out)], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        bodies.append((out / "metrics.csv").read_bytes())
    ok = len(bodies[0]) > 0 and bodies[0] == bodies[1]
    record_criterion(
        9, ok, f"two CLI reruns, metrics.csv byte-identical ({len(bodies[0])} bytes)"
    )
    assert ok


def test_criterion_10_cost_formula_examples():
    def profile(cycles, cpu, data_bits, payload, snr, bandwidth):
        noise = 1e-9
        return DeviceProfile(
            device_id=0, cycles_per_bit=cycles, cpu_freq_hz=cpu,
            data_bits=data_bits, payload_bits=payload,
            tx_power_w=snr * noise * bandwidth, channel_gain=1.0,
            noise_density_w_hz=noise, bandwidth_hz=bandwidth,
        )

    checks = {
        "compute 2*500/1000": compute_time(profile(2.0, 1000.0, 500.0, 1.0, 1.0, 1.0)) == 1.0,
        "compute 1*1/1": compute_time(profile(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)) == 1.0,
        "rate snr=1": uplink_rate(profile(1.0, 1.0, 1.0, 1.0, 1.0, 250.0)) == 1.0,
        "rate snr=3": uplink_rate(profile(1.0, 1.0, 1.0, 1.0, 3.0, 250.0)) == 2.0,
        "uplink 1000/(2*250)": comm_time(profile(1.0, 1.0, 1.0, 1000.0, 3.0, 250.0)) == 2.0,
        "straggler max": round_cost({0: (0.5, 0.5), 1: (1.0, 2.0), 2: (1.5, 0.5)}).round_cost_s == 3.0,
    }
    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    record_criterion(
        10, ok,
        "all closed-form examples exact in double precision"
        if ok else f"failed: {failed}",
    )
    assert ok
