"""Outside-in span recording for fedsel and the per-layer metrics derived from it.

The recorder replaces public names that fedsel's modules look up at call time
(module attributes and class methods) with wrappers that append one span per
call: [name, start, end, parent index, info]. Spans stay in memory; self time
is a span's duration minus its children's. Nothing here imports fedsel or
numpy, so importing this module costs nothing inside the timed set-up.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, INFO = range(5)


class Recorder:
    """In-memory span log for one single-threaded benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Traced stand-in for fn.

        before(bound_arguments, record) may note span info or swap arguments;
        after(result, record) sees the return value.
        """
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                if before is not None:
                    bound = signature.bind(*args, **kwargs)
                    before(bound.arguments, record)
                    args, kwargs = bound.args, bound.kwargs
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, record)
                return result
            finally:
                self._close(record)

        return traced


@contextmanager
def patched(targets):
    """Set (owner, attribute, replacement) triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_targets(recorder: Recorder, fedsel) -> list[tuple]:
    """Wrappers around every public name a run reaches, keyed to its layer."""
    orch, config, cli = fedsel.orchestrator, fedsel.config, fedsel.cli
    experiment, experiment_config = orch.Experiment, config.ExperimentConfig

    def counted(value_fn):
        return recorder.wrap("valuation.value_fn", value_fn)

    def tmc_before(arguments, record):
        game = arguments["game"]
        arguments["game"] = dataclasses.replace(game, value_fn=counted(game.value_fn))

    def greedy_before(arguments, record):
        arguments["value_fn"] = counted(arguments["value_fn"])

    def update_before(arguments, record):
        epochs = arguments.get("epochs")
        if epochs is None:
            epochs = arguments["hp"].epochs
        device = arguments["device"]
        record[INFO] = {"device": device.device_id, "steps": device.size * epochs}

    def round_after(result, record):
        plan = result[1]
        record[INFO] = {"explored": len(plan.explored), "accepted": len(plan.accepted)}

    plain = {
        (orch, "apply_dual_update"): "solver.apply_dual_update",
        (orch, "fenchel_gap"): "solver.fenchel_gap",
        (orch, "explore_select"): "selection.explore_select",
        (orch, "exploit_select"): "selection.exploit_select",
        (orch, "random_aggregate_plan"): "selection.random_aggregate_plan",
        (orch, "evaluate_global"): "orchestrator.evaluate_global",
        (orch, "fairness_audit"): "orchestrator.fairness_audit",
        (orch, "schedule_cost"): "cost.schedule_cost",
        (experiment, "evaluate"): "orchestrator.evaluate",
        (experiment, "run"): "orchestrator.run",
        (experiment_config, "build_split"): "data.build_split",
        (config, "load_idx_split"): "data.load_idx_split",
        (config, "load_config"): "config.load_config",
        (cli, "load_config"): "config.load_config",
        (cli, "main"): "cli.main",
    }
    hooked = {
        (orch, "device_update_ovr"): ("solver.device_update_ovr", update_before, None),
        (orch, "tmc_estimate"): ("valuation.tmc_estimate", tmc_before, None),
        (orch, "greedy_from_value_fn"): (
            "selection.greedy_from_value_fn", greedy_before, None,
        ),
        (experiment, "run_round"): ("orchestrator.run_round", None, round_after),
    }
    targets = [
        (owner, attr, recorder.wrap(name, getattr(owner, attr)))
        for (owner, attr), name in plain.items()
    ]
    targets += [
        (owner, attr, recorder.wrap(name, getattr(owner, attr), before, after))
        for (owner, attr), (name, before, after) in hooked.items()
    ]
    return targets


class SpanIndex:
    """Durations, self times and ancestry over a finished span log."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        child_total = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_total[s[PARENT]] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_total)]

    def ancestor(self, i: int, name: str) -> int:
        parent = self.spans[i][PARENT]
        while parent >= 0 and self.spans[parent][NAME] != name:
            parent = self.spans[parent][PARENT]
        return parent

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def under(self, region: str) -> list[int]:
        """Indices of spans inside any span named `region`."""
        return [i for i in range(len(self.spans)) if self.ancestor(i, region) >= 0]


SELECTION_NAMES = (
    "selection.explore_select",
    "selection.exploit_select",
    "selection.random_aggregate_plan",
    "selection.greedy_from_value_fn",
)


def layer_metrics(index: SpanIndex, passes: int, split_in_setup: bool) -> dict[str, float]:
    """Per-layer metrics from the spans of the set-up and the measured passes.

    Sums and counts are per pass; round_s and evaluate_s are medians per call.
    Grid workloads load their config and split in the set-up (split_in_setup),
    so data.split_s and config.load_s come from there; the sweep loads them
    inside `compare`, so there they are sums over the pass. selection.select_s
    includes the value-oracle calls greedy makes.
    """
    run = index.under("bench.run")
    setup = index.under("bench.setup")
    spans, duration, self_time = index.spans, index.duration, index.self_time

    def pick(indices, *names):
        return [i for i in indices if spans[i][NAME] in names]

    def total(indices) -> float:
        return sum(duration[i] for i in indices) / passes

    def median(indices) -> float:
        return statistics.median(duration[i] for i in indices) if indices else 0.0

    def loading(setup_name: str, run_name: str) -> float:
        if split_in_setup:
            return sum(duration[i] for i in pick(setup, setup_name))
        return total(pick(run, run_name))

    updates = pick(run, "solver.device_update_ovr")
    steps = sum(spans[i][INFO]["steps"] for i in updates) / passes
    distinct = {(index.ancestor(i, "orchestrator.run"), spans[i][INFO]["device"]) for i in updates}
    value_calls = pick(run, "valuation.value_fn")
    rounds = pick(run, "orchestrator.run_round")
    evaluations = pick(run, "orchestrator.evaluate")
    explored = sum(spans[i][INFO]["explored"] for i in rounds)
    accepted = sum(spans[i][INFO]["accepted"] for i in rounds)
    update_s = total(updates)
    value_s = total(value_calls)
    return {
        "data.split_s": loading("data.load_idx_split", "data.build_split"),
        "config.load_s": loading("config.load_config", "config.load_config"),
        "solver.update_s": update_s,
        "solver.updates": len(updates) / passes,
        "solver.coord_steps": steps,
        "solver.us_per_coord_step": 1e6 * update_s / steps if steps else 0.0,
        "solver.repeat_device_share": 1.0 - len(distinct) / len(updates) if updates else 0.0,
        "solver.apply_s": total(pick(run, "solver.apply_dual_update")),
        "solver.fenchel_gap_s": total(pick(run, "solver.fenchel_gap")),
        "valuation.value_calls": len(value_calls) / passes,
        "valuation.value_s": value_s,
        "valuation.us_per_value_call": 1e6 * value_s * passes / len(value_calls)
        if value_calls
        else 0.0,
        "selection.select_s": total(pick(run, *SELECTION_NAMES)),
        "selection.accept_ratio": accepted / explored if explored else 0.0,
        "cost.schedule_s": total(pick(run, "cost.schedule_cost")),
        "orchestrator.round_s": median(rounds),
        "orchestrator.rounds": len(rounds) / passes,
        "orchestrator.round_self_s": sum(self_time[i] for i in rounds) / passes,
        "orchestrator.evaluate_s": median(evaluations),
        "orchestrator.evaluate_calls": len(evaluations) / passes,
        "orchestrator.evaluate_global_s": total(pick(run, "orchestrator.evaluate_global")),
        "orchestrator.fairness_s": total(pick(run, "orchestrator.fairness_audit")),
        "orchestrator.evaluate_self_s": sum(self_time[i] for i in evaluations) / passes,
    }


def workload_specific(index: SpanIndex, passes: int) -> dict[str, float]:
    """Layer numbers that are zero on some workloads by construction."""
    run = index.under("bench.run")
    spans, duration, self_time = index.spans, index.duration, index.self_time

    def over(name: str, values) -> float:
        return sum(values[i] for i in run if spans[i][NAME] == name) / passes

    greedy_calls = [
        i for i in run
        if spans[i][NAME] == "valuation.value_fn"
        and index.ancestor(i, "selection.greedy_from_value_fn") >= 0
    ]
    return {
        "valuation.tmc_s": over("valuation.tmc_estimate", duration),
        "valuation.tmc_self_s": over("valuation.tmc_estimate", self_time),
        "selection.greedy_s": over("selection.greedy_from_value_fn", duration),
        "selection.greedy_value_calls": len(greedy_calls) / passes,
        "cli.compare_self_s": over("cli.main", self_time),
        "orchestrator.run_self_s": over("orchestrator.run", self_time),
    }


# Wrappers that bind arguments to their signature cost more per call.
BOUND_NAMES = (
    "solver.device_update_ovr",
    "valuation.tmc_estimate",
    "selection.greedy_from_value_fn",
)


def overhead_estimate_s(index: SpanIndex, passes: int, calls: int = 20000) -> float:
    """Wrapper cost per pass: spans per pass times the measured cost per wrapped call.

    Times `calls` calls of a no-op through a plain and through an
    argument-binding wrapper, minus the same calls unwrapped.
    """
    def noop(device=None, hp=None, epochs=None):
        return None

    def bind(arguments, record):
        return None

    def per_call(fn) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            fn(1, 2)
        return (time.perf_counter() - started) / calls

    scratch = Recorder()
    bare = per_call(noop)
    plain = per_call(scratch.wrap("plain", noop)) - bare
    bound = per_call(scratch.wrap("bound", noop, before=bind)) - bare
    run = index.under("bench.run")
    heavy = sum(1 for i in run if index.spans[i][NAME] in BOUND_NAMES)
    return (plain * (len(run) - heavy) + bound * heavy) / passes
