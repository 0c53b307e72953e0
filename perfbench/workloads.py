"""The benchmark's workloads: set-up, one measured pass, and output checks.

Every workload calls fedsel only through public names looked up at call
time (fedsel.config.load_config, ExperimentConfig.build_split,
fedsel.orchestrator.Experiment, fedsel.cli.main), so the span wrappers in
spans.py see every call. Import this module only after `import fedsel` has
been timed.
"""
from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fedsel
import fedsel.cli
from spans import patched

# The paper-grid split shared by every grid workload: surrogate corpus, 100
# devices, unbalanced 2-shard non-iid partition, smoothed hinge, lambda = 1/D.
GRID_SPLIT = (
    "data.source=idx",
    "data.num_devices=100",
    "data.shards_per_device=2",
    "data.unbalanced=true",
    "data.validation_size=5000",
    "data.device_test_fraction=0.2",
    "solver.loss=smoothed_hinge",
)

GRID_WORKLOADS = {
    "grid_cds": (
        "cds",
        (
            "selection.c_fraction=0.1",
            "solver.epochs=10",
            "valuation.delta_t=1",
            "orchestrator.rounds=7",
            "orchestrator.eval_every=1",
        ),
    ),
    "grid_greedy": (
        "greedy",
        (
            "solver.epochs=10",
            "orchestrator.rounds=2",
            "orchestrator.stop_at_accuracy=0.8",
        ),
    ),
    "grid_tmc": (
        "cds",
        (
            "selection.c_fraction=0.3",
            "solver.epochs=1",
            "valuation.delta_t=50",
            "orchestrator.rounds=6",
            "orchestrator.eval_every=6",
        ),
    ),
}

SWEEP_CONFIG = Path("configs") / "synthetic_quick.ini"
SWEEP_POLICIES = "cds,random,greedy"
SWEEP_SEEDS = 10

CONSISTENCY_TOLERANCE = 1e-9


@dataclass
class PassOutcome:
    """What one measured pass left behind for the checks."""

    problems: list[str] = field(default_factory=list)
    # one FinalStates per experiment run in the pass
    runs: list["FinalStates"] = field(default_factory=list)


@dataclass
class FinalStates:
    """A finished run's dual states with what the invariant checks need."""

    label: str
    split: object
    reg_lambda: float
    loss: object
    states: list

    @classmethod
    def of(cls, experiment, result) -> "FinalStates":
        return cls(
            label=f"{result.policy} seed {result.seed}",
            split=experiment.split,
            reg_lambda=experiment.reg_lambda,
            loss=experiment.loss,
            states=result.states,
        )


def check_final_states(final: FinalStates) -> list[str]:
    """phi/alpha consistency and dual feasibility of every final state."""
    features, labels = final.split.stacked_train()
    problems = []
    for k, state in enumerate(final.states):
        error = state.consistency_error(features, final.reg_lambda)
        if not error < CONSISTENCY_TOLERANCE:
            problems.append(
                f"{final.label} class {k}: "
                f"consistency error {error:.3e} >= {CONSISTENCY_TOLERANCE:g}"
            )
        targets = np.where(labels == k, 1.0, -1.0)
        if not np.all(final.loss.dual_feasible(state.alpha, targets)):
            problems.append(f"{final.label} class {k}: alpha is not dual feasible")
    return problems


def check_metrics_csv(path: Path) -> list[str]:
    """Shape checks that hold for any seed: header, rows, accuracy range."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if "test_acc" not in header or len(lines) < 3:
        return [f"{path.name}: expected a header and at least two rows"]
    column = header.index("test_acc")
    accuracies = [float(line.split(",")[column]) for line in lines[1:]]
    if not all(0.0 <= a <= 1.0 for a in accuracies):
        return [f"{path.name}: test accuracy outside [0, 1]"]
    return []


class GridWorkload:
    """One policy run on the paper-grid split, built through the config layer."""

    def __init__(self, name: str, seed: int, corpus: Path, out: Path):
        policy, overrides = GRID_WORKLOADS[name]
        self.policy = policy
        self.overrides = [*GRID_SPLIT, *overrides, f"data.data_dir={corpus}"]
        self.seed = seed
        self.csv_path = out / "metrics.csv"
        self.out = out
        self.cfg = self.split = self.experiment = self.result = None

    def setup(self) -> None:
        """Config, split and Experiment: everything before round 1 can start."""
        self.cfg = self.split = self.experiment = None
        self.cfg = fedsel.config.load_config(
            None, self.overrides, seed=self.seed, policy=self.policy
        )
        self.split = self.cfg.build_split()
        self.experiment = self._experiment()

    def _experiment(self):
        cfg = self.cfg
        return fedsel.orchestrator.Experiment(
            self.split,
            cfg.hyper,
            cfg.policy,
            eval_every=cfg.eval_every,
            stop_at_accuracy=cfg.stop_at_accuracy,
            cost_ranges=cfg.cost_ranges(),
        )

    def prepare_pass(self) -> None:
        # a later pass must not inherit the previous pass's Gram cache
        if self.experiment is None:
            self.experiment = self._experiment()

    def run_pass(self) -> None:
        self.result = self.experiment.run(
            self.cfg.rounds, out_dir=self.out, config_payload=self.cfg.payload()
        )

    def finish_pass(self) -> PassOutcome:
        outcome = PassOutcome(
            problems=check_metrics_csv(self.csv_path),
            runs=[FinalStates.of(self.experiment, self.result)],
        )
        # drops the Gram cache before the next pass or the checks
        self.experiment = self.result = None
        return outcome


class SweepWorkload:
    """`fedsel compare` over synthetic_quick.ini, in process, through the CLI."""

    def __init__(self, seed: int, config_path: Path, out: Path):
        self.config_path = config_path
        self.seeds = ",".join(str(seed + i) for i in range(SWEEP_SEEDS))
        self.csv_path = out / "merged_metrics.csv"
        self.out = out
        self.runs: list[tuple] = []
        self.exit_code = None

    def setup(self) -> None:
        """Config parsing only; `compare` builds its splits itself."""
        fedsel.config.load_config(self.config_path)

    def prepare_pass(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.runs = []

    def run_pass(self) -> None:
        experiment = fedsel.orchestrator.Experiment
        run = experiment.run
        runs = self.runs

        def recorded(exp, *args, **kwargs):
            result = run(exp, *args, **kwargs)
            runs.append((exp, result))
            return result

        argv = [
            "compare",
            "--config", str(self.config_path),
            "--policies", SWEEP_POLICIES,
            "--seeds", self.seeds,
            "--out", str(self.out),
        ]
        with patched([(experiment, "run", recorded)]):
            with contextlib.redirect_stdout(io.StringIO()):
                self.exit_code = fedsel.cli.main(argv)

    def finish_pass(self) -> PassOutcome:
        problems = [] if self.exit_code == 0 else [f"compare exited {self.exit_code}"]
        expected = len(SWEEP_POLICIES.split(",")) * SWEEP_SEEDS
        if len(self.runs) != expected:
            problems.append(f"compare ran {len(self.runs)} experiments, expected {expected}")
        return PassOutcome(
            problems=problems + check_metrics_csv(self.csv_path),
            runs=[FinalStates.of(exp, result) for exp, result in self.runs],
        )


def make(name: str, seed: int, sweep_config: Path, corpus: Path | None, work: Path):
    out = work / "runs" / name
    if name in GRID_WORKLOADS:
        return GridWorkload(name, seed, corpus, out)
    return SweepWorkload(seed, sweep_config, out)
