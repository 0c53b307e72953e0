"""A tiny run under the benchmark's own span hooks and final-state checks.

perfbench wraps fedsel's public names by attribute and checks
ExperimentResult.states after every pass; a renamed hooked name, a hooked
name the run no longer calls, or a change to the per-class final states
would otherwise fail only in a benchmark run.
"""
from pathlib import Path

import pytest
from conftest import tiny_split

import fedsel
from fedsel.selection import SelectionPolicy
from fedsel.solver import Hyperparams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# hooked names a run reaches only through the config or the command line
OUTSIDE_EXPERIMENT = {"data.build_split", "data.load_idx_split", "config.load_config", "cli.main"}
# hooked names each policy never reaches
NOT_REACHED = {
    "cds": {"selection.random_aggregate_plan", "selection.greedy_from_value_fn"},
    "greedy": {
        "selection.explore_select", "selection.exploit_select",
        "selection.random_aggregate_plan", "valuation.tmc_estimate",
    },
    "random": {
        "selection.exploit_select", "selection.greedy_from_value_fn", "valuation.tmc_estimate",
    },
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


@pytest.mark.parametrize("kind", ["cds", "greedy", "random"])
def test_tiny_run_under_benchmark_hooks_passes_its_checks(perfbench, monkeypatch, kind):
    spans, workloads = perfbench
    split = tiny_split(num_devices=6)
    hp = Hyperparams(epochs=2, c_fraction=0.5, delta_t=2, seed=3)
    recorder = spans.Recorder()
    hooked = set()
    wrap = recorder.wrap

    def naming(name, *args):
        hooked.add(name)
        return wrap(name, *args)

    monkeypatch.setattr(recorder, "wrap", naming)
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
    # every hooked name the policy reaches is still called, and nothing else
    assert names == {"bench.run"} | hooked - OUTSIDE_EXPERIMENT - NOT_REACHED[kind]
    assert {"orchestrator.evaluate_global", "orchestrator.fairness_audit"} <= names
    if kind == "cds":
        assert "valuation.tmc_estimate" in names
    if kind != "random":
        assert metrics["valuation.value_calls"] > 0
