"""Round-loop behavior: evaluation, pairing, aggregation, stopping, reporting."""
import json
import platform
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from conftest import force_numpy, fresh_fast_paths, tiny_split

import fedsel.orchestrator as orch
from fedsel import native, products, solver, valuation
from fedsel.cli import main
from fedsel.data import DeviceDataset, SplitDataset
from fedsel.orchestrator import (
    CSV_COLUMNS,
    CSV_HEADER,
    Experiment,
    RoundMetrics,
    device_test_scores,
    evaluate_global,
    fairness_audit,
    rounds_to_target,
)
from fedsel.rng import DEVICE, substream
from fedsel.selection import SelectionPolicy
from fedsel.solver import (
    AGGREGATION_RULES,
    GlobalState,
    Hyperparams,
    LocalUpdate,
    aggregation_count,
    apply_dual_update,
    device_update_ovr,
    one_vs_rest_targets,
)
from fedsel.valuation import CoalitionOracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
HP = Hyperparams(loss="smoothed_hinge", epochs=2, c_fraction=0.5, seed=3)
# manifest.json's keys, in the order readers of earlier run directories saw them
MANIFEST_KEYS = [
    "policy", "seed", "config_digest", "config", "started_at", "finished_at", "status",
    "fast_paths", "lanes", "blas", "python", "numpy", "value_products", "rows_written",
    "stop_reason", "error", "outputs",
]


def train_values(split, phi_cols, loss):
    """The (n, K) train loss values evaluate_global takes, as Experiment.evaluate makes them."""
    features, labels = split.stacked_train()
    k = phi_cols.shape[1]
    return orch._train_loss_values((features @ phi_cols).T, one_vs_rest_targets(labels, k).T, loss)


def test_zero_model_scores_class_zero_frequency():
    split = tiny_split()
    phi_cols = np.zeros((split.feature_dim, 3))
    acc, train_loss = evaluate_global(
        phi_cols, split, HP.resolved_lambda(split.total_train),
        train_values(split, phi_cols, HP.make_loss()),
    )
    assert acc == float(np.mean(split.test_labels == 0))
    # smoothed hinge at margin 0 is 1/2 for both targets, regularizer is 0
    assert train_loss == 0.5


def test_evaluate_global_rejects_class_major_train_values():
    # zero margins score 1/2 in any layout, so only the shape check can tell
    split = tiny_split()
    phi_cols = np.zeros((split.feature_dim, 3))
    values = train_values(split, phi_cols, HP.make_loss())
    lam = HP.resolved_lambda(split.total_train)
    for bad in (values.T, values[:-1], values[:, :2]):
        with pytest.raises(ValueError, match=r"\(n, K\)"):
            evaluate_global(phi_cols, split, lam, bad)


def test_single_device_full_participation_is_identity_aggregation():
    split = tiny_split(num_devices=1, samples_per_device=10, seed=11)
    hp = Hyperparams(c_fraction=1.0, epochs=2, seed=5)
    exp = Experiment(split, hp, SelectionPolicy(kind="random"))
    state, plan = exp.run_round(GlobalState.zeros(split.feature_dim, 10, 3), 1)
    assert plan.explored == plan.accepted == (0,)
    update = device_update_ovr(
        split.devices[0],
        np.zeros((split.feature_dim, 3)),
        np.zeros((10, 3)),
        3,
        hp,
        substream(5, DEVICE, 1, 0),
        total_samples=10,
    )
    assert np.array_equal(state.phi, update.delta_phi)
    assert np.array_equal(state.alpha, update.rho)


def test_cds_and_random_share_the_exploration_stream():
    split = tiny_split(num_devices=8)
    hp = Hyperparams(c_fraction=0.25, seed=13)
    cds = Experiment(split, hp, SelectionPolicy(kind="cds"))
    rnd = Experiment(split, hp, SelectionPolicy(kind="random"))
    for t in (1, 2, 5):
        assert cds._explored(t) == rnd._explored(t)
    # greedy surveys the entire fleet instead
    greedy = Experiment(split, hp, SelectionPolicy(kind="greedy"))
    assert greedy._explored(1) == tuple(range(8))


def test_random_at_full_fraction_explores_and_accepts_every_device():
    # full participation: every device's update in every round
    split = tiny_split(num_devices=5)
    exp = Experiment(split, replace(HP, c_fraction=1.0), SelectionPolicy(kind="random"))
    state = GlobalState.zeros(split.feature_dim, split.total_train, 3)
    for t in (1, 2, 3):
        state, plan = exp.run_round(state, t)
        assert plan.explored == plan.accepted == tuple(range(5))


def _scratch_value(phi_cols, deltas, subset, features, labels, count):
    """Reference coalition value: score phi + sum(deltas)/count from scratch."""
    candidate = phi_cols
    if subset:
        candidate = phi_cols + sum(deltas[m] for m in subset) / count
    return float(np.mean(np.argmax(features @ candidate, axis=1) == labels))


def test_value_fn_matches_coalition_value_on_every_subset():
    split = tiny_split(num_devices=6)  # explored < fleet, so 'explored' != 'all'
    explored = (0, 1, 2, 3)
    rng = np.random.default_rng(0)
    for rule in AGGREGATION_RULES:
        hp = replace(HP, aggregation_denominator=rule)
        exp = Experiment(split, hp, SelectionPolicy(kind="cds"))
        state = GlobalState.zeros(split.feature_dim, split.total_train, 3)
        cases = []
        for round_index in (1, 2):  # round 2 starts from a nonzero phi
            updates = exp._device_updates(round_index, explored, state)
            cases.append((state.phi, {m: u.delta_phi for m, u in updates.items()}))
            state, _ = exp.run_round(state, round_index)
        assert np.any(cases[1][0])
        # random weights hold the accuracy near chance, where the denominator moves it
        shape = cases[0][0].shape
        cases.append((rng.normal(size=shape), {m: rng.normal(size=shape) for m in explored}))
        for phi_cols, deltas in cases:
            value = CoalitionOracle(
                phi_cols, deltas, split.validation_features, split.validation_labels,
                rule, exp.num_devices,
            )
            subsets = [s for size in range(5) for s in combinations(explored, size)]
            for subset in subsets:
                count = {"accepted": len(subset), "explored": 4, "all": 6}[rule]
                assert value(subset) == _scratch_value(
                    phi_cols, deltas, subset,
                    split.validation_features, split.validation_labels, count,
                )
            for chosen in subsets[:-1]:  # a greedy sweep after each chosen set
                walks = [(m,) for m in explored if m not in chosen]
                assert value.walk_values(walks, chosen) == [
                    [value(tuple(sorted((*chosen, m))))] for (m,) in walks
                ]


def test_round_batch_equals_device_by_device_updates(monkeypatch):
    # the round solves its explored devices as one batch; a replaced
    # per-device update is called device by device, with the same bytes
    split = tiny_split(num_devices=6, samples_per_device=40)
    exp = Experiment(split, replace(HP, c_fraction=1.0), SelectionPolicy(kind="greedy"))
    state = GlobalState.zeros(split.feature_dim, split.total_train, 3)
    state, _ = exp.run_round(state, 1)  # round 2 starts from nonzero phi and alpha
    calls = []

    def by_device(device, *args, **kwargs):
        calls.append(device.device_id)
        return solver.device_update_ovr(device, *args, **kwargs)

    batch = exp._device_updates(2, exp._explored(2), state)
    monkeypatch.setattr(orch, "device_update_ovr", by_device)
    one_by_one = exp._device_updates(2, exp._explored(2), state)
    assert calls == list(range(6)) and list(batch) == list(one_by_one) == calls
    for m, update in batch.items():
        other = one_by_one[m]
        for name in ("rho", "delta_phi", "achieved_theta"):
            assert getattr(update, name).tobytes() == getattr(other, name).tobytes(), (m, name)


def test_null_update_round_keeps_phi_and_falls_back_to_top_one(monkeypatch):
    split = tiny_split()

    def zero_updates(device, phi_cols, alpha_cols, num_classes, hp, rng, *,
                     total_samples, epochs=None, gram_scaled=None):
        return LocalUpdate(
            device_id=device.device_id,
            sample_indices=device.sample_indices,
            rho=np.zeros(alpha_cols.shape),
            delta_phi=np.zeros(phi_cols.shape),
            achieved_theta=np.ones(num_classes),
        )

    monkeypatch.setattr(orch, "device_update_ovr", zero_updates)
    exp = Experiment(split, HP, SelectionPolicy(kind="cds"))
    state = GlobalState.zeros(split.feature_dim, split.total_train, 3)
    new_state, plan = exp.run_round(state, 1)
    assert plan.betas == {m: 0.0 for m in plan.explored}
    assert plan.accepted == (min(plan.explored),)
    assert np.array_equal(state.phi, new_state.phi)
    assert np.array_equal(state.alpha, new_state.alpha)


def test_aggregation_count_follows_denominator_rule():
    counts = {rule: aggregation_count(rule, 1, 3, 4) for rule in AGGREGATION_RULES}
    assert counts == {"accepted": 1, "explored": 3, "all": 4}
    with pytest.raises(ValueError, match="total_devices"):
        aggregation_count("all", 1, 3, None)
    with pytest.raises(ValueError, match="unknown aggregation rule"):
        aggregation_count("median", 1, 3, 4)
    # the round loop adds sum(accepted delta_phi) / count to phi, bit for bit
    split = tiny_split()
    first_counts = {}
    for rule in AGGREGATION_RULES:
        exp = Experiment(split, replace(HP, aggregation_denominator=rule), SelectionPolicy())
        state = GlobalState.zeros(split.feature_dim, split.total_train, 3)
        for round_index in (1, 2):  # round 2 starts from a nonzero phi
            updates = exp._device_updates(round_index, exp._explored(round_index), state)
            new_state, plan = exp.run_round(state, round_index)
            count = aggregation_count(rule, len(plan.accepted), len(plan.explored), 4)
            first_counts.setdefault(rule, count)
            want = state.phi.copy()
            for m in sorted(plan.accepted):
                want += updates[m].delta_phi / count
            assert new_state.phi.tobytes() == want.tobytes()
            state = new_state
    assert first_counts["explored"] != first_counts["all"]


def per_class_round(exp, states, round_index):
    """The round loop as it was with one 1-D GlobalState per class: phi and
    each device's alpha rows stacked from the K states, the reply split into K
    per-class updates, their delta_phi stacked again for the value oracle, and
    K apply_dual_update calls."""
    explored = exp._explored(round_index)
    phi_cols = np.stack([s.phi for s in states], axis=1)
    updates = {}
    for m in explored:
        rows = exp.devices[m].sample_indices
        reply = device_update_ovr(
            exp.devices[m],
            phi_cols,
            np.stack([s.alpha[rows] for s in states], axis=1),
            exp.num_classes,
            exp.hyper,
            substream(exp.hyper.seed, DEVICE, round_index, m),
            total_samples=exp.total_samples,
            gram_scaled=exp._scaled_gram(m),
        )
        updates[m] = [
            LocalUpdate(
                m, reply.sample_indices, reply.rho[:, k], reply.delta_phi[:, k],
                float(reply.achieved_theta[k]),
            )
            for k in range(exp.num_classes)
        ]
    stacked = {m: np.stack([u.delta_phi for u in ups], axis=1) for m, ups in updates.items()}
    plan = exp._plan(round_index, explored, phi_cols, stacked)
    count = aggregation_count(
        exp.hyper.aggregation_denominator, len(plan.accepted), len(plan.explored),
        exp.num_devices,
    )
    new_states = [
        apply_dual_update(states[k], [updates[m][k] for m in plan.accepted], count)
        for k in range(exp.num_classes)
    ]
    return new_states, plan


@pytest.mark.parametrize("rule", AGGREGATION_RULES)
@pytest.mark.parametrize("kind", ["cds", "greedy", "random"])
def test_one_state_round_matches_per_class_rounds_bitwise(kind, rule):
    split = tiny_split(num_devices=6)
    hp = replace(HP, aggregation_denominator=rule)
    exp = Experiment(split, hp, SelectionPolicy(kind=kind))
    reference = Experiment(split, hp, SelectionPolicy(kind=kind))
    state = GlobalState.zeros(split.feature_dim, split.total_train, 3)
    states = [
        GlobalState(phi=np.zeros(split.feature_dim), alpha=np.zeros(split.total_train))
        for _ in range(3)
    ]
    for round_index in (1, 2):
        state, plan = exp.run_round(state, round_index)
        states, want_plan = per_class_round(reference, states, round_index)
        assert repr(plan) == repr(want_plan)
        assert state.phi.tobytes() == np.stack([s.phi for s in states], axis=1).tobytes()
        assert state.alpha.tobytes() == np.stack([s.alpha for s in states], axis=1).tobytes()
    assert state.phi.shape == (split.feature_dim, 3)
    assert state.alpha.shape == (split.total_train, 3)
    assert np.any(state.phi)


def test_consistency_invariant_holds_across_rounds():
    split = tiny_split()
    exp = Experiment(split, HP, SelectionPolicy(kind="cds"))
    result = exp.run(3)
    features, _ = split.stacked_train()
    for state in result.states:
        assert state.consistency_error(features, exp.reg_lambda) < 1e-9


def _float32_split() -> tuple:
    """A tiny split built from float32 arrays, as IDX pixels arrive, where
    device 2 has no local test split; also returns the float32 training shards."""
    base = tiny_split(num_devices=5, samples_per_device=14)
    shards = [d.features.astype(np.float32) for d in base.devices]
    devices = [
        DeviceDataset(
            device_id=d.device_id,
            features=shard,
            labels=d.labels,
            sample_indices=d.sample_indices,
            test_features=None if d.device_id == 2 else d.test_features.astype(np.float32),
            test_labels=None if d.device_id == 2 else d.test_labels,
        )
        for d, shard in zip(base.devices, shards)
    ]
    split = SplitDataset(
        devices=devices,
        validation_features=base.validation_features.astype(np.float32),
        validation_labels=base.validation_labels,
        test_features=base.test_features.astype(np.float32),
        test_labels=base.test_labels,
        num_classes=base.num_classes,
    )
    return split, shards


def _reference_metrics(exp, shards, state, round_index, plan, round_cost_s, cum_cost_s):
    """Experiment.evaluate computed the way it was before the split held one
    float64 training matrix: a float32 vstack upcast, two train products, and
    every device's test scores computed twice."""
    split, loss, num_classes = exp.split, exp.loss, exp.num_classes
    phi_cols = state.phi

    def scores(features):
        return np.asarray(features, dtype=np.float64) @ phi_cols

    def binary(labels):
        return np.where(labels[:, None] == np.arange(num_classes)[None, :], 1.0, -1.0)

    def accuracy(features, labels):
        return float(np.mean(np.argmax(scores(features), axis=1) == labels))

    stacked = np.vstack(shards)
    targets = binary(np.concatenate([d.labels for d in split.devices]))
    data_term = float(np.mean(loss.value(scores(stacked), targets)))
    reg_term = 0.5 * exp.reg_lambda * float(np.mean(np.sum(phi_cols**2, axis=0)))
    gap_margins = stacked @ phi_cols
    gap = float(np.mean([
        solver.fenchel_gap(state.alpha[:, k], gap_margins[:, k], targets[:, k], loss)
        for k in range(num_classes)
    ]))
    held = [d for d in split.devices if d.test_features is not None]
    local_accs = [accuracy(d.test_features, d.test_labels) for d in held]
    risks = [
        float(np.mean(loss.value(scores(d.test_features), binary(d.test_labels))))
        for d in held
    ]
    return RoundMetrics(
        round_index=round_index,
        policy=exp.policy.kind,
        test_acc=accuracy(split.test_features, split.test_labels),
        train_loss=data_term + reg_term,
        personalization_mean=float(np.mean(local_accs)),
        personalization_var=float(np.var(local_accs)),
        fairness_violations=sum(r > exp.hyper.theta_threshold for r in risks),
        duality_gap=gap,
        round_cost_s=round_cost_s,
        cum_cost_s=cum_cost_s,
        explored=0 if plan is None else len(plan.explored),
        accepted=0 if plan is None else len(plan.accepted),
    )


@pytest.mark.parametrize("loss", ["smoothed_hinge", "squared"])
def test_evaluate_matches_two_pass_reference_bitwise(loss, monkeypatch):
    split, shards = _float32_split()
    hp = replace(HP, loss=loss, epochs=1, c_fraction=0.6, theta_threshold=0.15)
    exp = Experiment(split, hp, SelectionPolicy(kind="cds"))
    state = GlobalState.zeros(split.feature_dim, split.total_train, 3)
    cases = [(0, state, None)]
    for round_index in (1, 2):
        state, plan = exp.run_round(state, round_index)
    cases.append((2, state, plan))
    # a random phi keeps the accuracies away from 0 and 1
    rng = np.random.default_rng(4)
    cases.append((3, replace(state, phi=rng.normal(size=state.phi.shape)), plan))
    # the shapes' probes as this BLAS answers them, then every probe failed
    for verdict in ("probed", "row_major"):
        if verdict == "row_major":
            monkeypatch.setattr(products, "_SHAPES", {})
            monkeypatch.setattr(products, "_same_bytes", lambda a, b: False)
        ran = products.LAYOUTS.copy()
        for round_index, state, plan in cases:
            got = exp.evaluate(state, round_index, plan, 1.25, 2.5)
            want = _reference_metrics(exp, shards, state, round_index, plan, 1.25, 2.5)
            assert [repr(getattr(got, f.name)) for f in fields(RoundMetrics)] == [
                repr(getattr(want, f.name)) for f in fields(RoundMetrics)
            ]
        if verdict == "row_major":
            assert (products.LAYOUTS - ran).keys() == {"row_major"}


def test_zero_round_run_reports_only_the_initial_row(tmp_path):
    split = tiny_split()
    result = Experiment(split, HP, SelectionPolicy(kind="cds")).run(0, out_dir=tmp_path / "r0")
    assert len(result.metrics) == 1
    row = result.metrics[0]
    assert row.round_index == 0
    assert row.explored == row.accepted == 0
    assert row.cum_cost_s == 0.0
    assert result.stop_reason == "completed"

    lines = (tmp_path / "r0" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2
    manifest = json.loads((tmp_path / "r0" / "manifest.json").read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["status"] == "complete"
    assert manifest["rows_written"] == 1
    assert manifest["stop_reason"] == "completed"
    # the library's outcome and each kernel's, with the clone the library loaded
    library, *kernels = manifest["fast_paths"].values()
    assert manifest["fast_paths"] == orch.fast_paths()
    assert list(manifest["fast_paths"]) == ["library", "sdca_job", "walk_values"]
    assert list(library) == ["status", "reason", "clone"]
    assert all(list(record) == ["status", "reason"] for record in kernels)
    if native.library() is not None:
        assert library == {"status": "c", "reason": None, "clone": library["clone"]}
        assert library["clone"] in ("avx512f", "avx2", "default")
    assert manifest["lanes"] == native.lanes() >= 2
    assert manifest["blas"] == native.blas()
    assert set(manifest["blas"]) == {"name", "version", "threads", "core"}
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    # the round-0 evaluation scores the zero model: +0.0 without a product
    assert manifest["value_products"] is None


def test_run_rejects_negative_rounds_and_bad_eval_every():
    split = tiny_split()
    with pytest.raises(ValueError, match="rounds"):
        Experiment(split, HP, SelectionPolicy(kind="cds")).run(-1)
    with pytest.raises(ValueError, match="eval_every"):
        Experiment(split, HP, SelectionPolicy(kind="cds"), eval_every=0)


def test_eval_every_skips_intermediate_rows_but_keeps_final():
    split = tiny_split()
    result = Experiment(split, HP, SelectionPolicy(kind="random"), eval_every=2).run(5)
    assert [m.round_index for m in result.metrics] == [0, 2, 4, 5]


def test_accuracy_stop_target():
    split = tiny_split()
    # the least legal target: any accuracy above 0 reaches it
    exp = Experiment(split, HP, SelectionPolicy(kind="random"), stop_at_accuracy=5e-324)
    result = exp.run(10)
    assert result.stop_reason == "accuracy_target"
    assert result.metrics[-1].round_index == 1


@pytest.mark.parametrize(
    "argument, value",
    [
        ("theta_threshold", -1.0), ("theta_threshold", np.inf), ("theta_threshold", np.nan),
        ("duality_gap_target", -1.0), ("duality_gap_target", 0.0),
        ("duality_gap_target", np.inf), ("duality_gap_target", np.nan),
        ("stop_at_accuracy", -1.0), ("stop_at_accuracy", 0.0), ("stop_at_accuracy", 1.5),
        ("stop_at_accuracy", np.nan),
    ],
)
def test_library_refuses_what_the_config_table_refuses(argument, value):
    # the intervals of config.DEFAULTS: theta_threshold [0, inf),
    # duality_gap_target (0, inf) and stop_at_accuracy (0, 1], None allowed
    # for the last two
    with pytest.raises(ValueError, match=f"^{argument} must be in"):
        if argument == "stop_at_accuracy":
            Experiment(tiny_split(), HP, SelectionPolicy(kind="cds"), stop_at_accuracy=value)
        else:
            replace(HP, **{argument: value})


def test_duality_gap_stop_target():
    split = tiny_split()
    hp = replace(HP, duality_gap_target=1e9)
    result = Experiment(split, hp, SelectionPolicy(kind="random")).run(10)
    assert result.stop_reason == "duality_gap_target"
    assert result.metrics[-1].round_index == 1


def test_crashed_run_marks_its_manifest_failed(tmp_path, monkeypatch):
    def broken_update(*args, **kwargs):
        raise ValueError("local solve diverged")

    monkeypatch.setattr(orch, "device_update_ovr", broken_update)
    out = tmp_path / "crash"
    with pytest.raises(ValueError, match="diverged"):
        Experiment(tiny_split(), HP, SelectionPolicy(kind="cds")).run(2, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["status"] == "failed"
    assert manifest["error"] == "ValueError: local solve diverged"
    assert manifest["rows_written"] == 1  # the round-0 row, written before round 1
    assert manifest["stop_reason"] is None
    assert manifest["value_products"] is None  # round 0 scores the zero model without one
    assert len((out / "metrics.csv").read_text().splitlines()) == 2

    cli_out = tmp_path / "cli"
    code = main([
        "run", "--quiet", "--out", str(cli_out),
        "--set", "data.source=synthetic", "--set", "data.num_devices=5",
        "--set", "data.synthetic_train_size=200", "--set", "orchestrator.rounds=2",
    ])
    assert code == 1
    assert json.loads((cli_out / "manifest.json").read_text())["status"] == "failed"


def test_failed_run_records_the_value_products_of_its_rounds(tmp_path, monkeypatch):
    def broken_cost(*args, **kwargs):  # after round 1's plan
        raise ValueError("cost model failed")

    orch.fast_paths()  # the kernels' probes run unpatched
    monkeypatch.setattr(orch, "schedule_cost", broken_cost)
    # every probe passed (the bytes are not checked here), then every probe failed
    for verdict, recorded in ((True, "k_major"), (False, "row_major")):
        monkeypatch.setattr(products, "_SHAPES", {})
        monkeypatch.setattr(products, "_same_bytes", lambda a, b: verdict)
        out = tmp_path / recorded
        with pytest.raises(ValueError, match="cost model"):
            Experiment(tiny_split(), HP, SelectionPolicy(kind="cds")).run(2, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["value_products"] == recorded


def test_rerun_is_byte_identical_and_seed_sensitive():
    split = tiny_split()
    lines = []
    for seed in (3, 3, 4):
        result = Experiment(split, replace(HP, seed=seed), SelectionPolicy(kind="cds")).run(2)
        lines.append([m.csv_line() for m in result.metrics])
    assert lines[0] == lines[1]
    assert lines[0] != lines[2]


@pytest.mark.parametrize("policy", ["cds", "cds-walks", "greedy", "random"])
def test_metrics_csv_bytes_equal_with_numpy_fallback(tmp_path, monkeypatch, policy):
    # 150 validation rows: three value-kernel blocks, so the batch values can
    # be split into three row ranges
    split = tiny_split(num_devices=6, samples_per_device=30, validation_size=150)
    base = replace(HP, delta_t=6) if policy == "cds-walks" else HP
    runs = []
    for hp in (base, replace(base, loss="squared", aggregation_denominator="explored")):
        for backend in ("fan-out", "numpy", "one-range", "row-major"):
            if backend == "fan-out":  # every batch on three threads
                monkeypatch.setattr(native.os, "sched_getaffinity", lambda pid: {0, 1, 2})
                monkeypatch.setattr(valuation, "RANGE_WORK", 1)
            if backend == "numpy":
                force_numpy(monkeypatch, "sdca_job", "walk_values")
            if backend == "one-range":  # as on a host with one usable CPU
                monkeypatch.setattr(native.os, "sched_getaffinity", lambda pid: {0})
            if backend == "row-major":  # as on a BLAS whose class-major products differ
                orch.fast_paths()  # the kernels' probes run unpatched
                monkeypatch.setattr(products, "_SHAPES", {})
                monkeypatch.setattr(products, "_same_bytes", lambda a, b: False)
            out = tmp_path / f"{hp.loss}-{backend}"
            kind = policy.split("-")[0]
            Experiment(split, hp, SelectionPolicy(kind=kind)).run(3, out_dir=out)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["fast_paths"] == orch.fast_paths()
            if backend == "numpy":
                forced = {"status": "numpy", "reason": "forced off"}
                assert manifest["fast_paths"]["sdca_job"] == forced
                assert manifest["fast_paths"]["walk_values"] == forced
            assert manifest["lanes"] == native.lanes()
            assert manifest["blas"] == native.blas()
            if backend == "row-major":
                assert manifest["value_products"] == "row_major"
            else:
                assert manifest["value_products"] in ("k_major", "row_major")
            runs.append((out / "metrics.csv").read_bytes())
            monkeypatch.undo()
    assert runs[0] == runs[1] == runs[2] == runs[3] and runs[4] == runs[5] == runs[6] == runs[7]
    assert runs[0] != runs[4]


def test_truncated_walks_write_the_same_bytes_with_the_walk_kernel_off(tmp_path, monkeypatch):
    # walks that truncate mid-walk read the kernel's batch only up to their stops
    audit = []

    def audited(*args, audit_sink, **kwargs):
        return valuation.tmc_estimate(*args, audit_sink=audit.append, **kwargs)

    monkeypatch.setattr(orch, "tmc_estimate", audited)
    runs = []
    for kernel in ("on", "off"):
        if kernel == "off":
            force_numpy(monkeypatch, "walk_values")
        out = tmp_path / kernel
        code = main([
            "run", "--quiet", "--config", str(CONFIGS / "synthetic_quick.ini"), "--out", str(out),
            "--set", "valuation.trunc_tol=0.01", "--set", "valuation.delta_t=4",
        ])
        assert code == 0
        runs.append((out / "metrics.csv").read_bytes())
    assert runs[0] == runs[1]
    half = len(audit) // 2
    assert repr(audit[:half]) == repr(audit[half:])
    assert any(
        entry["truncated_from"] not in (None, 0, len(entry["permutation"]) - 1) for entry in audit
    )


def test_runs_without_a_compiler_say_so_and_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    quick = ["--config", str(CONFIGS / "synthetic_quick.ini"), "--set", "orchestrator.rounds=4"]
    assert main(["run", "--quiet", *quick, "--out", str(tmp_path / "compiled")]) == 0
    compiled = capsys.readouterr()
    fresh_fast_paths(monkeypatch)
    monkeypatch.setattr(native, "COMPILER", str(tmp_path / "no-such-cc"))
    assert main(["run", "--quiet", *quick, "--out", str(tmp_path / "numpy")]) == 0
    declined = capsys.readouterr()
    assert declined.out.split(" out=")[0] == compiled.out.split(" out=")[0]
    assert declined.err.splitlines() == [
        "warning: library falls back to numpy: no compiler",
        "warning: sdca_job falls back to numpy: no library",
        "warning: walk_values falls back to numpy: no library",
    ]
    manifest = json.loads((tmp_path / "numpy" / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["fast_paths"]["library"] == {
        "status": "numpy", "reason": "no compiler", "clone": None,
    }
    assert (tmp_path / "numpy" / "metrics.csv").read_bytes() == (
        tmp_path / "compiled" / "metrics.csv"
    ).read_bytes()
    # compare warns once per declined path, not once per run
    code = main([
        "compare", "--quiet", *quick, "--policies", "cds,random", "--seeds", "1,2",
        "--out", str(tmp_path / "sweep"),
    ])
    assert code == 0
    assert capsys.readouterr().err == declined.err


def test_round_costs_accumulate():
    split = tiny_split()
    result = Experiment(split, HP, SelectionPolicy(kind="cds")).run(3)
    costs = [m.round_cost_s for m in result.metrics[1:]]
    cums = [m.cum_cost_s for m in result.metrics[1:]]
    assert all(c > 0 for c in costs)
    np.testing.assert_allclose(np.cumsum(costs), cums, rtol=1e-12)


def test_greedy_policy_accepts_nonempty_subset_of_fleet():
    split = tiny_split()
    result = Experiment(split, HP, SelectionPolicy(kind="greedy")).run(2)
    for m in result.metrics[1:]:
        assert m.explored == 4
        assert 1 <= m.accepted <= 4


def test_fairness_audit_threshold_extremes():
    split = tiny_split()
    loss = HP.make_loss()
    phi = np.zeros((split.feature_dim, 3))
    scores = device_test_scores(phi, split.devices)
    risks, violators = fairness_audit(scores, split.devices, loss, float("inf"), 3)
    assert violators == set()
    assert set(risks) == {0, 1, 2, 3}
    # at threshold 0 every audited device violates: hinge risk at phi=0 is 1/2
    _, violators = fairness_audit(scores, split.devices, loss, 0.0, 3)
    assert violators == {0, 1, 2, 3}
    assert all(r == 0.5 for r in risks.values())


def test_fairness_audit_identical_devices_agree():
    split = tiny_split(num_devices=2)
    clone = split.devices[0]
    twin = type(clone)(
        device_id=9,
        features=clone.features,
        labels=clone.labels,
        sample_indices=clone.sample_indices,
        test_features=clone.test_features,
        test_labels=clone.test_labels,
    )
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(split.feature_dim, 3))
    scores = device_test_scores(phi, [clone, twin])
    risks, violators = fairness_audit(scores, [clone, twin], HP.make_loss(), 0.4, 3)
    assert risks[clone.device_id] == risks[9]
    assert (clone.device_id in violators) == (9 in violators)


def test_fairness_audit_skips_devices_without_holdout():
    split = tiny_split(num_devices=2)
    bare = type(split.devices[0])(
        device_id=5,
        features=split.devices[0].features,
        labels=split.devices[0].labels,
        sample_indices=split.devices[0].sample_indices,
    )
    scores = device_test_scores(np.zeros((split.feature_dim, 3)), [bare])
    risks, violators = fairness_audit(scores, [bare], HP.make_loss(), 0.0, 3)
    assert risks == {} and violators == set()


def test_rounds_to_target():
    rows = [
        RoundMetrics(
            round_index=i, policy="cds", test_acc=acc, train_loss=0.0,
            personalization_mean=0.0, personalization_var=0.0,
            fairness_violations=0, duality_gap=0.0, round_cost_s=0.0,
            cum_cost_s=0.0, explored=0, accepted=0,
        )
        for i, acc in enumerate([0.1, 0.5, 0.81, 0.7, 0.9])
    ]
    assert rounds_to_target(rows, 0.8) == 2
    assert rounds_to_target(rows, 0.95) is None


def test_csv_lines_round_trip_header(tmp_path):
    # a RoundMetrics is one metrics.csv row: its fields are the columns, in order
    assert [f.name for f in fields(RoundMetrics)] == ["round_index", *CSV_COLUMNS[1:]]
    split = tiny_split()
    result = Experiment(split, HP, SelectionPolicy(kind="random")).run(1, out_dir=tmp_path)
    text = (tmp_path / "metrics.csv").read_text()
    assert text == CSV_HEADER + "".join(m.csv_line() for m in result.metrics)
    lines = text.splitlines()
    assert lines[0].startswith("round,policy,test_acc")
    assert len(lines) == 1 + len(result.metrics)
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)


def test_cds_audit_sink_collects_permutation_records():
    split = tiny_split()
    sink: list[dict] = []
    Experiment(
        split, replace(HP, delta_t=2), SelectionPolicy(kind="cds"), audit_sink=sink
    ).run(2)
    assert len(sink) == 4  # delta_t permutations per global round
    assert {e["global_round"] for e in sink} == {1, 2}
    for entry in sink:
        assert set(entry) >= {"permutation", "marginals", "truncated_from"}


def test_beta_persistence_keeps_means_across_rounds():
    split = tiny_split()
    policy = SelectionPolicy(kind="cds", beta_persistence=True)
    exp = Experiment(split, replace(HP, c_fraction=1.0), policy)
    state, _ = exp.run_round(GlobalState.zeros(split.feature_dim, split.total_train, 3), 1)
    counts_after_1 = dict(exp._persistent_ledger.counts)
    exp.run_round(state, 2)
    for m, count in exp._persistent_ledger.counts.items():
        assert count >= counts_after_1.get(m, 0)
    assert max(exp._persistent_ledger.counts.values()) > max(counts_after_1.values())
