"""Deterministic simulator of contribution-based device selection.

A linear convex model is trained by distributed dual coordinate ascent over
partitioned devices; each round explores a random device subset, estimates
per-device marginal contributions by truncated Monte-Carlo permutation
sampling on a validation coalition game, and aggregates only the updates that
help. Baseline policies (random, which is full participation at C = 1, and
greedy) share the same exploration randomness so comparisons are paired by
construction.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .cost import DeviceProfile, comm_time, compute_time, sample_profiles, schedule_cost
from .data import (
    DataFormatError,
    DeviceDataset,
    SplitDataset,
    generate_synthetic,
    load_idx_split,
    parse_idx,
    write_idx,
)
from .losses import LOSSES, SmoothedHinge, SquaredLoss, make_loss
from .orchestrator import (
    Experiment,
    ExperimentResult,
    RoundMetrics,
    RunManifest,
    evaluate_global,
    fairness_audit,
)
from .selection import (
    KeepRule,
    RoundPlan,
    SelectionPolicy,
    exploit_select,
    explore_select,
)
from .solver import (
    GlobalState,
    Hyperparams,
    LocalUpdate,
    apply_dual_update,
    device_update,
    device_update_ovr,
    dual_objective,
    duality_gap,
    primal_objective,
)
from .valuation import (
    CoalitionGame,
    CoalitionOracle,
    ContributionLedger,
    exact_shapley,
    tmc_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "DeviceProfile",
    "comm_time",
    "compute_time",
    "sample_profiles",
    "schedule_cost",
    "DataFormatError",
    "DeviceDataset",
    "SplitDataset",
    "generate_synthetic",
    "load_idx_split",
    "parse_idx",
    "write_idx",
    "LOSSES",
    "SmoothedHinge",
    "SquaredLoss",
    "make_loss",
    "Experiment",
    "ExperimentResult",
    "RoundMetrics",
    "RunManifest",
    "evaluate_global",
    "fairness_audit",
    "KeepRule",
    "RoundPlan",
    "SelectionPolicy",
    "exploit_select",
    "explore_select",
    "GlobalState",
    "Hyperparams",
    "LocalUpdate",
    "apply_dual_update",
    "device_update",
    "device_update_ovr",
    "dual_objective",
    "duality_gap",
    "primal_objective",
    "CoalitionGame",
    "CoalitionOracle",
    "ContributionLedger",
    "exact_shapley",
    "tmc_estimate",
    "__version__",
]
