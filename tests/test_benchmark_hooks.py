"""A tiny run under the benchmark's own span hooks and final-state checks.

perfbench wraps fedsel's public names by attribute and checks
ExperimentResult.states after every pass; a renamed hooked name or a change
to the per-class final states would otherwise fail only in a benchmark run.
"""
from pathlib import Path

import pytest
from conftest import tiny_split

import fedsel
from fedsel.selection import SelectionPolicy
from fedsel.solver import Hyperparams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


@pytest.mark.parametrize("kind", ["cds", "greedy", "random"])
def test_tiny_run_under_benchmark_hooks_passes_its_checks(perfbench, kind):
    spans, workloads = perfbench
    split = tiny_split(num_devices=6)
    hp = Hyperparams(epochs=2, c_fraction=0.5, delta_t=2, seed=3)
    recorder = spans.Recorder()
    with spans.patched(spans.layer_targets(recorder, fedsel)):
        exp = fedsel.orchestrator.Experiment(split, hp, SelectionPolicy(kind=kind))
        with recorder.span("bench.run"):
            result = exp.run(2)

    assert workloads.check_final_states(workloads.FinalStates.of(exp, result)) == []
    assert len(result.states) == split.num_classes
    for state in result.states:
        assert state.phi.shape == (split.feature_dim,)
        assert state.alpha.shape == (split.total_train,)

    metrics = spans.layer_metrics(spans.SpanIndex(recorder.spans), 1, False)
    explored = 6 if kind == "greedy" else 3
    assert metrics["orchestrator.rounds"] == 2
    assert metrics["orchestrator.evaluate_calls"] == 3
    assert metrics["solver.updates"] == 2 * explored
    assert metrics["solver.coord_steps"] == 2 * explored * 12 * hp.epochs
    assert 0.0 < metrics["selection.accept_ratio"] <= 1.0
    names = {span[spans.NAME] for span in recorder.spans}
    assert {"solver.apply_dual_update", "solver.fenchel_gap", "cost.schedule_cost"} <= names
    if kind != "random":
        assert metrics["valuation.value_calls"] > 0
