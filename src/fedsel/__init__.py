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
from .data import DataFormatError, DeviceDataset, SplitDataset, generate_synthetic, load_idx_split
from .losses import LOSSES, SmoothedHinge, SquaredLoss, make_loss
from .orchestrator import Experiment, ExperimentResult
from .selection import KeepRule, SelectionPolicy
from .solver import GlobalState, Hyperparams, device_update, duality_gap
from .valuation import CoalitionGame, CoalitionOracle, exact_shapley, tmc_estimate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "DataFormatError",
    "DeviceDataset",
    "SplitDataset",
    "generate_synthetic",
    "load_idx_split",
    "LOSSES",
    "SmoothedHinge",
    "SquaredLoss",
    "make_loss",
    "Experiment",
    "ExperimentResult",
    "KeepRule",
    "SelectionPolicy",
    "GlobalState",
    "Hyperparams",
    "device_update",
    "duality_gap",
    "CoalitionGame",
    "CoalitionOracle",
    "exact_shapley",
    "tmc_estimate",
    "__version__",
]
