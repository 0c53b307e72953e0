"""Experiment configuration: one key table, INI-style files, overrides.

A config file is a sectioned key/value tree; sections mirror module names.
Every key has one entry in DEFAULTS: its type, its default, its legal values
and the key value that reads it, so a minimal file only states what it
changes; a key that a library setting backs takes its entry from that
setting's declaration (fedsel.settings). `--set section.key=value` (or a bare
key when unique) patches the parsed tree before validation. `build_config`
checks every key against its entry in one call; besides that call only two
checks relate keys to each other (synthetic train size against devices, cost
minimum against maximum).
Every refusal raises ConfigError naming the offending section.key; the CLI
maps that to exit code 2.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .data import SplitDataset, generate_synthetic, load_idx_split
from .selection import KeepRule, SelectionPolicy
# ConfigError and check_legal stay importable from here, as the CLI does
from .settings import (
    ConfigError, Setting, check_fields, check_legal, check_values, declared, setting,
)
from .solver import Hyperparams


@dataclass
class ExperimentConfig:
    """Validated run description; `values` is the resolved key tree verbatim.

    Experiment and Experiment.run take rounds, eval_every and
    stop_at_accuracy as arguments, checked against these fields."""

    hyper: Hyperparams
    policy: SelectionPolicy
    rounds: int = setting("orchestrator.rounds", "int", 50, "[0, inf)")
    eval_every: int = setting("orchestrator.eval_every", "int", 1, "[1, inf)")
    stop_at_accuracy: float | None = setting(
        "orchestrator.stop_at_accuracy", "opt_float", None, "(0, 1]"
    )
    out_dir: str | None = setting("orchestrator.out_dir", "opt_str", None)
    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)

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


# Each key maps to (type tag, default, legal values, reader), as
# settings.Setting describes them. Policy is never a reader: compare runs one
# config under every policy. A key that a library setting backs takes its
# entry from that setting's declaration (_library); the data and cost keys,
# which feed plain function keyword arguments, are written here.
_IDX = ("data.source", "idx")
_SYNTHETIC = ("data.source", "synthetic")
_LIBRARY = {
    spec.key: spec.entry()
    for owner in (Hyperparams, KeepRule, SelectionPolicy, ExperimentConfig)
    for spec in declared(owner).values()
}


def _library(section: str, *keys: str) -> dict[str, tuple]:
    return {key: _LIBRARY[f"{section}.{key}"] for key in keys}


DEFAULTS: dict[str, dict[str, tuple]] = {
    "data": {
        "source": ("str", "idx", ("idx", "synthetic"), None),
        "data_dir": ("opt_str", None, None, None),  # falls back to FEDSEL_DATA_DIR
        "num_devices": ("int", 100, "[1, inf)", None),
        "shards_per_device": ("int", 2, "[1, inf)", _IDX),
        "unbalanced": ("bool", False, None, _IDX),
        "validation_size": ("int", 5000, "[1, inf)", _IDX),
        "device_test_fraction": ("float", 0.2, "[0, 1)", _IDX),
        "synthetic_dim": ("int", 20, "[1, inf)", _SYNTHETIC),
        "synthetic_train_size": ("int", 2000, "[1, inf)", _SYNTHETIC),
        "synthetic_separation": ("float", 3.0, "[0, inf)", _SYNTHETIC),
    },
    "solver": _library(
        "solver", "loss", "gamma", "reg_lambda", "epochs", "aggregation_denominator"
    ),
    "selection": _library(
        "selection",
        "c_fraction", "keep_rule", "keep_k", "keep_cutoff", "greedy_early_stop", "beta_persistence",
    ),
    "valuation": _library("valuation", "delta_t", "trunc_tol"),
    "cost": {
        "cpu_freq_min_hz": ("float", 0.5e9, "(0, inf)", None),
        "cpu_freq_max_hz": ("float", 10e9, "(0, inf)", None),
        "cycles_per_bit_min": ("float", 10.0, "(0, inf)", None),
        "cycles_per_bit_max": ("float", 40.0, "(0, inf)", None),
        "snr_min": ("float", 1.0, "(0, inf)", None),
        "snr_max": ("float", 15.0, "(0, inf)", None),
        "bandwidth_hz": ("float", 1e6, "(0, inf)", None),
    },
    "orchestrator": _library(
        "orchestrator",
        "policy", "rounds", "seed", "eval_every",
        "theta_threshold", "stop_at_accuracy", "duality_gap_target", "out_dir",
    ),
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
        section: {key: spec[1] for key, spec in keys.items()}
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


def _from_keys(owner, tree: dict[str, dict[str, object]], **fields):
    """An owner whose every declared field holds the value of its key in tree."""
    for name, spec in declared(owner).items():
        section, _, key = spec.key.partition(".")
        fields[name] = tree[section][key]
    return owner(**fields)


def build_config(values: dict[str, dict[str, object]]) -> ExperimentConfig:
    """Turn a resolved key tree into validated runtime objects."""
    check_values({
        f"{section}.{key}": (Setting(f"{section}.{key}", *entry), values[section][key])
        for section, keys in DEFAULTS.items()
        for key, entry in keys.items()
    })
    data, cost = values["data"], values["cost"]
    # every synthetic device holds at least one training sample
    if data["source"] == "synthetic" and data["synthetic_train_size"] < data["num_devices"]:
        raise ConfigError(
            f"data.synthetic_train_size must be >= data.num_devices "
            f"({data['num_devices']}), got {data['synthetic_train_size']}"
        )
    for lo_key, hi_key in (
        ("cpu_freq_min_hz", "cpu_freq_max_hz"),
        ("cycles_per_bit_min", "cycles_per_bit_max"),
        ("snr_min", "snr_max"),
    ):
        if cost[lo_key] > cost[hi_key]:
            raise ConfigError(
                f"cost.{lo_key}={cost[lo_key]} must be <= cost.{hi_key}={cost[hi_key]}"
            )
    return _from_keys(
        ExperimentConfig,
        values,
        hyper=_from_keys(Hyperparams, values),
        policy=_from_keys(SelectionPolicy, values, keep_rule=_from_keys(KeepRule, values)),
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
