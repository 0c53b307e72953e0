"""Experiment configuration: one defaults table, INI-style files, overrides.

A config file is a sectioned key/value tree; sections mirror module names.
Every key has exactly one default below, so a minimal file only states what
it changes. `--set section.key=value` (or a bare key when unique) patches the
parsed tree before validation. All validation failures raise ConfigError with
the offending section.key; the CLI maps that to exit code 2.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .data import SplitDataset, generate_synthetic, load_idx_split
from .selection import KeepRule, SelectionPolicy
from .solver import Hyperparams


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


# type tags: int/float/bool/str plus opt_* variants where empty means None
DEFAULTS: dict[str, dict[str, tuple[str, object]]] = {
    "data": {
        "source": ("str", "idx"),  # idx | synthetic
        "data_dir": ("opt_str", None),  # falls back to FEDSEL_DATA_DIR
        "num_devices": ("int", 100),
        "shards_per_device": ("int", 2),
        "unbalanced": ("bool", False),
        "validation_size": ("int", 5000),
        "device_test_fraction": ("float", 0.2),
        "synthetic_dim": ("int", 20),
        "synthetic_train_size": ("int", 2000),
        "synthetic_separation": ("float", 3.0),
    },
    "solver": {
        "loss": ("str", "smoothed_hinge"),
        "gamma": ("float", 1.0),
        "reg_lambda": ("opt_float", None),  # empty means 1/D
        "epochs": ("int", 10),
        "aggregation_denominator": ("str", "accepted"),
    },
    "selection": {
        "c_fraction": ("float", 0.1),
        "keep_rule": ("str", "positive"),
        "keep_k": ("int", 1),
        "keep_cutoff": ("float", 0.0),
        "greedy_early_stop": ("bool", True),
        "beta_persistence": ("bool", False),
    },
    "valuation": {
        "delta_t": ("int", 1),
        "trunc_tol": ("float", 0.0),
    },
    "cost": {
        "cpu_freq_min_hz": ("float", 0.5e9),
        "cpu_freq_max_hz": ("float", 10e9),
        "cycles_per_bit_min": ("float", 10.0),
        "cycles_per_bit_max": ("float", 40.0),
        "snr_min": ("float", 1.0),
        "snr_max": ("float", 15.0),
        "bandwidth_hz": ("float", 1e6),
    },
    "orchestrator": {
        "policy": ("str", "cds"),
        "rounds": ("int", 50),
        "seed": ("int", 1),
        "eval_every": ("int", 1),
        "theta_threshold": ("float", 0.5),
        "stop_at_accuracy": ("opt_float", None),
        "duality_gap_target": ("opt_float", None),
        "out_dir": ("opt_str", None),
    },
}

# the [data] keys only one source reads; data_dir, a path, is accepted under both
_SOURCE_KEYS = {
    "idx": ("shards_per_device", "unbalanced", "validation_size", "device_test_fraction"),
    "synthetic": ("synthetic_dim", "synthetic_train_size", "synthetic_separation"),
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(section: str, key: str, tag: str, raw: str):
    raw = raw.strip()
    where = f"{section}.{key}"
    if tag.startswith("opt_"):
        if raw == "" or raw.lower() == "none":
            return None
        tag = tag[4:]
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            value = float(raw)
            if math.isnan(value):
                raise ValueError(f"not a number: {raw!r}")
            return value
        if tag == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def default_values() -> dict[str, dict[str, object]]:
    return {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in DEFAULTS.items()
    }


def read_config_file(path: str | Path) -> dict[str, dict[str, object]]:
    """Parse a config file over the defaults table; unknown keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    values = default_values()
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(
                f"unknown config section [{section}] (known: {sorted(DEFAULTS)})"
            )
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(
                    f"unknown key {section}.{key} "
                    f"(known keys: {sorted(DEFAULTS[section])})"
                )
            tag = DEFAULTS[section][key][0]
            values[section][key] = _coerce(section, key, tag, raw)
    return values


def apply_overrides(
    values: dict[str, dict[str, object]], overrides: list[str]
) -> dict[str, dict[str, object]]:
    """Patch `section.key=value` pairs in place; bare keys must be unique."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        dotted = dotted.strip()
        if "." in dotted:
            section, _, key = dotted.partition(".")
            if section not in DEFAULTS or key not in DEFAULTS[section]:
                raise ConfigError(f"override names unknown key {dotted!r}")
        else:
            hits = [s for s in DEFAULTS if dotted in DEFAULTS[s]]
            if not hits:
                raise ConfigError(f"override names unknown key {dotted!r}")
            if len(hits) > 1:
                raise ConfigError(
                    f"override key {dotted!r} is ambiguous across sections {hits}; "
                    f"qualify it as section.key"
                )
            section, key = hits[0], dotted
        tag = DEFAULTS[section][key][0]
        values[section][key] = _coerce(section, key, tag, raw)
    return values


@dataclass
class ExperimentConfig:
    """Validated run description; `values` is the resolved key tree verbatim."""

    hyper: Hyperparams
    policy: SelectionPolicy
    rounds: int
    eval_every: int
    stop_at_accuracy: float | None
    out_dir: str | None
    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def payload(self) -> dict:
        return self.values

    def cost_ranges(self) -> dict:
        """Profile-sampling kwargs from the [cost] section."""
        c = self.values["cost"]
        return {
            "cpu_freq_range_hz": (c["cpu_freq_min_hz"], c["cpu_freq_max_hz"]),
            "cycles_per_bit_range": (c["cycles_per_bit_min"], c["cycles_per_bit_max"]),
            "snr_range": (c["snr_min"], c["snr_max"]),
            "bandwidth_hz": c["bandwidth_hz"],
        }

    def build_split(self) -> SplitDataset:
        d = self.values["data"]
        seed = self.hyper.seed
        if d["source"] == "synthetic":
            return generate_synthetic(
                dim=d["synthetic_dim"],
                train_size=d["synthetic_train_size"],
                num_devices=d["num_devices"],
                separation=d["synthetic_separation"],
                seed=seed,
            )
        data_dir = d["data_dir"] or os.environ.get("FEDSEL_DATA_DIR")
        if not data_dir:
            raise ConfigError(
                "data.data_dir is empty and FEDSEL_DATA_DIR is not set; "
                "point one of them at an IDX dataset directory"
            )
        return load_idx_split(
            data_dir,
            num_devices=d["num_devices"],
            shards_per_device=d["shards_per_device"],
            seed=seed,
            validation_size=d["validation_size"],
            device_test_fraction=d["device_test_fraction"],
            unbalanced=d["unbalanced"],
        )


def build_config(values: dict[str, dict[str, object]]) -> ExperimentConfig:
    """Turn a resolved key tree into validated runtime objects."""
    s, sel, val, orch, data = (
        values["solver"],
        values["selection"],
        values["valuation"],
        values["orchestrator"],
        values["data"],
    )
    try:
        hyper = Hyperparams(
            loss=s["loss"],
            gamma=s["gamma"],
            reg_lambda=s["reg_lambda"],
            epochs=s["epochs"],
            c_fraction=sel["c_fraction"],
            delta_t=val["delta_t"],
            trunc_tol=val["trunc_tol"],
            theta_threshold=orch["theta_threshold"],
            duality_gap_target=orch["duality_gap_target"],
            seed=orch["seed"],
            aggregation_denominator=s["aggregation_denominator"],
        )
        hyper.make_loss()  # force loss-name and gamma validation now, not mid-run
        keep = KeepRule(
            kind=sel["keep_rule"], k=sel["keep_k"], cutoff=sel["keep_cutoff"]
        )
        policy = SelectionPolicy(
            kind=orch["policy"],
            keep_rule=keep,
            greedy_early_stop=sel["greedy_early_stop"],
            beta_persistence=sel["beta_persistence"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if data["source"] not in ("idx", "synthetic"):
        raise ConfigError(
            f"data.source must be 'idx' or 'synthetic', got {data['source']!r}"
        )
    # a value the chosen source never reads is refused rather than ignored
    for source, keys in _SOURCE_KEYS.items():
        for key in keys:
            if source != data["source"] and data[key] != DEFAULTS["data"][key][1]:
                raise ConfigError(
                    f"data.{key}={data[key]} is read only by data.source={source!r}, "
                    f"not {data['source']!r}"
                )
    if orch["rounds"] < 0:
        raise ConfigError(f"orchestrator.rounds must be >= 0, got {orch['rounds']}")
    if orch["eval_every"] < 1:
        raise ConfigError(
            f"orchestrator.eval_every must be >= 1, got {orch['eval_every']}"
        )
    if data["num_devices"] < 1:
        raise ConfigError(f"data.num_devices must be >= 1, got {data['num_devices']}")
    if not 0 <= data["device_test_fraction"] < 1:
        raise ConfigError(
            f"data.device_test_fraction must be in [0, 1), "
            f"got {data['device_test_fraction']}"
        )
    # an infinite separation makes every blob centre infinite, and scaling
    # then turns every feature into NaN
    if not math.isfinite(data["synthetic_separation"]):
        raise ConfigError(
            f"data.synthetic_separation must be finite, got {data['synthetic_separation']}"
        )
    cost = values["cost"]
    for lo_key, hi_key in (
        ("cpu_freq_min_hz", "cpu_freq_max_hz"),
        ("cycles_per_bit_min", "cycles_per_bit_max"),
        ("snr_min", "snr_max"),
    ):
        # profiles are drawn uniformly from each range, which must be finite
        if not math.isfinite(cost[hi_key]):
            raise ConfigError(f"cost.{hi_key} must be finite, got {cost[hi_key]}")
        if not 0 < cost[lo_key] <= cost[hi_key]:
            raise ConfigError(
                f"cost.{lo_key}..{hi_key} must satisfy 0 < min <= max, "
                f"got ({cost[lo_key]}, {cost[hi_key]})"
            )
    if cost["bandwidth_hz"] <= 0:
        raise ConfigError(f"cost.bandwidth_hz must be > 0, got {cost['bandwidth_hz']}")

    return ExperimentConfig(
        hyper=hyper,
        policy=policy,
        rounds=orch["rounds"],
        eval_every=orch["eval_every"],
        stop_at_accuracy=orch["stop_at_accuracy"],
        out_dir=orch["out_dir"],
        values=values,
    )


def load_config(
    path: str | Path | None,
    overrides: list[str] | None = None,
    seed: int | None = None,
    policy: str | None = None,
    out_dir: str | None = None,
) -> ExperimentConfig:
    """File -> overrides -> flag patches -> validation, in that order."""
    values = read_config_file(path) if path is not None else default_values()
    apply_overrides(values, list(overrides or []))
    if seed is not None:
        values["orchestrator"]["seed"] = int(seed)
    if policy is not None:
        values["orchestrator"]["policy"] = policy
    if out_dir is not None:
        values["orchestrator"]["out_dir"] = out_dir
    return build_config(values)
