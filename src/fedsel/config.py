"""Experiment configuration: one key table, INI-style files, overrides.

A config file is a sectioned key/value tree; sections mirror module names.
Every key has one entry in DEFAULTS, the Setting (fedsel.settings) that the
module reading it declares: its type, its default, its legal values, the key
value that reads it and the key it is bounded by, so a minimal file only
states what it changes. `--set section.key=value` (or a bare key when
unique) patches the parsed tree before validation. `build_config` checks
every key against its Setting, and the keys against each other, in one call.
Every refusal raises ConfigError naming the offending section.key; the CLI
maps that to exit code 2.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import cost, data
from .data import SplitDataset, generate_synthetic, load_idx_split
from .selection import KeepRule, SelectionPolicy
# ConfigError stays importable from here, as the CLI does
from .settings import ConfigError, Setting, check_fields, check_values, declared, setting
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


# Every key's Setting, as the module that reads it declares it. Policy is
# never a reader: compare runs one config under every policy.
_DECLARED = {
    spec.key: spec
    for owner in (data, cost, Hyperparams, KeepRule, SelectionPolicy, ExperimentConfig)
    for spec in declared(owner).values()
}
DEFAULTS: dict[str, dict[str, Setting]] = {
    section: {key: _DECLARED[f"{section}.{key}"] for key in keys.split()}
    for section, keys in {
        "data": "source data_dir num_devices shards_per_device unbalanced validation_size"
                " device_test_fraction synthetic_dim synthetic_train_size synthetic_separation",
        "solver": "loss gamma reg_lambda epochs aggregation_denominator",
        "selection": "c_fraction keep_rule keep_k keep_cutoff greedy_early_stop beta_persistence",
        "valuation": "delta_t trunc_tol",
        "cost": "cpu_freq_min_hz cpu_freq_max_hz cycles_per_bit_min cycles_per_bit_max"
                " snr_min snr_max bandwidth_hz",
        "orchestrator": "policy rounds seed eval_every theta_threshold stop_at_accuracy"
                        " duality_gap_target out_dir",
    }.items()
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(spec: Setting, raw: str):
    """raw as a value of spec's type, or ConfigError naming spec's key."""
    raw, tag = raw.strip(), spec.tag
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
        raise ConfigError(f"{spec.key}: {exc}") from None


def default_values() -> dict[str, dict[str, object]]:
    return {
        section: {key: spec.default for key, spec in keys.items()}
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
            values[section][key] = _coerce(DEFAULTS[section][key], raw)
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
        values[section][key] = _coerce(DEFAULTS[section][key], raw)
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
        f"{section}.{key}": (spec, values[section][key])
        for section, keys in DEFAULTS.items()
        for key, spec in keys.items()
    })
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
