"""Config parsing/validation and the command-line contract."""
import ast
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsel.cli import main
from fedsel.config import (
    DEFAULTS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_config,
    default_values,
    load_config,
    read_config_file,
)
from fedsel import cli, cost, data
from fedsel.cost import sample_profiles
from fedsel.data import generate_synthetic, load_idx_split
from fedsel.orchestrator import Experiment
from fedsel.selection import KeepRule, SelectionPolicy
from fedsel.selfcheck import run_selfcheck
from fedsel.settings import declared
from fedsel.solver import Hyperparams

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.ini"))

TINY = [
    "--set", "data.source=synthetic",
    "--set", "data.num_devices=5",
    "--set", "data.synthetic_train_size=200",
    "--set", "data.synthetic_dim=6",
    "--set", "orchestrator.rounds=2",
    "--set", "selection.c_fraction=0.5",
]


# -- config ----------------------------------------------------------------------


def test_defaults_build_a_valid_config():
    cfg = build_config(default_values())
    assert cfg.policy.kind == "cds"
    assert cfg.rounds == 50
    assert cfg.hyper.seed == 1
    assert cfg.hyper.delta_t == 1
    assert cfg.hyper.reg_lambda is None
    ranges = cfg.cost_ranges()
    assert ranges["cpu_freq_range_hz"] == (0.5e9, 10e9)
    assert ranges["cycles_per_bit_range"] == (10.0, 40.0)
    assert ranges["snr_range"] == (1.0, 15.0)
    assert ranges["bandwidth_hz"] == 1e6


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[solver]\nepochs = 3\nreg_lambda =\n"
        "[valuation]\ndelta_t = 5  # inline comment\n"
        "[data]\nunbalanced = yes\n"
    )
    values = read_config_file(path)
    assert values["solver"]["epochs"] == 3
    assert values["solver"]["reg_lambda"] is None
    assert values["valuation"]["delta_t"] == 5
    assert values["data"]["unbalanced"] is True
    # untouched keys keep their defaults
    assert values["orchestrator"]["rounds"] == 50


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load(path):
    assert load_config(path).rounds > 0


def test_config_file_unknown_names(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[training]\nepochs = 3\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        read_config_file(bad_section)

    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[solver]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key solver.learning_rate"):
        read_config_file(bad_key)

    # solver knobs that never changed a run are no longer accepted
    for key, raw in (("block_size", "10"), ("eta", "0.01"), ("local_solver", "dual")):
        bad_key.write_text(f"[solver]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"unknown key solver.{key}"):
            read_config_file(bad_key)

    with pytest.raises(ConfigError, match="cannot read"):
        read_config_file(tmp_path / "missing.ini")

    malformed = tmp_path / "c.ini"
    malformed.write_text("epochs = 3\n")  # key before any section header
    with pytest.raises(ConfigError, match="malformed"):
        read_config_file(malformed)


def test_config_coercion_errors(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[solver]\nepochs = many\n")
    with pytest.raises(ConfigError, match="solver.epochs"):
        read_config_file(path)
    path.write_text("[data]\nunbalanced = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        read_config_file(path)


FLOAT_KEYS = [
    spec.key
    for keys in DEFAULTS.values()
    for spec in keys.values()
    if spec.tag in ("float", "opt_float")
]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_float_values_are_rejected(key, tmp_path, capsys):
    # a NaN threshold or target compares false everywhere, so it would switch
    # its check off silently instead of failing the run
    with pytest.raises(ConfigError, match=rf"{key}: not a number"):
        apply_overrides(default_values(), [f"{key}=nan"])
    section, _, name = key.partition(".")
    path = tmp_path / "exp.ini"
    path.write_text(f"[{section}]\n{name} = NaN\n")
    with pytest.raises(ConfigError, match=rf"{key}: not a number"):
        read_config_file(path)
    assert main(["run", "--set", f"{key}=nan"]) == 2
    assert key in capsys.readouterr().err
    # infinity stays a value: it is each key's own check that rules on it
    assert apply_overrides(default_values(), [f"{key}=inf"])[section][name] == float("inf")


def test_overrides_dotted_and_bare():
    values = default_values()
    apply_overrides(values, ["valuation.delta_t=5", "epochs=7", "reg_lambda=0.5"])
    assert values["valuation"]["delta_t"] == 5
    assert values["solver"]["epochs"] == 7
    assert values["solver"]["reg_lambda"] == 0.5

    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(default_values(), ["solver.momentum=0.9"])
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(default_values(), ["warmup=5"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(default_values(), ["delta_t"])


@pytest.mark.parametrize(
    "override, message",
    [
        ("orchestrator.policy=oracle", "policy"),
        ("solver.loss=logistic", "loss"),
        ("orchestrator.rounds=-1", "rounds"),
        ("orchestrator.seed=-1", "orchestrator.seed"),
        ("orchestrator.eval_every=0", "eval_every"),
        ("data.num_devices=0", "num_devices"),
        ("data.source=csv", "data.source"),
        ("cost.cpu_freq_min_hz=2e10", "cpu_freq_min_hz"),
        ("cost.snr_min=0", "snr_min"),
        ("cost.bandwidth_hz=0", "bandwidth_hz"),
        ("valuation.delta_t=0", "delta_t"),
        ("data.device_test_fraction=1.0", "device_test_fraction"),
        ("data.device_test_fraction=1.5", "device_test_fraction"),
        ("data.device_test_fraction=-0.5", "device_test_fraction"),
        ("data.shards_per_device=-1", "data.shards_per_device"),
        ("data.validation_size=0", "data.validation_size"),
        ("orchestrator.theta_threshold=-1", "orchestrator.theta_threshold"),
        ("orchestrator.stop_at_accuracy=-1", "orchestrator.stop_at_accuracy"),
        ("orchestrator.stop_at_accuracy=1.5", "orchestrator.stop_at_accuracy"),
        ("orchestrator.duality_gap_target=-1", "orchestrator.duality_gap_target"),
    ],
)
def test_build_config_validation(override, message):
    with pytest.raises(ConfigError, match=message) as refused:
        load_config(None, [override])
    # the message opens with the key it refuses, as section.key
    assert str(refused.value).startswith(override.partition("=")[0])


@pytest.mark.parametrize(
    "overrides",
    [
        ["selection.keep_k=3"],
        ["selection.keep_cutoff=0.2"],
        ["selection.keep_rule=threshold", "selection.keep_k=2"],
        ["selection.keep_rule=top_k", "selection.keep_k=2", "selection.keep_cutoff=0.1"],
        ["selection.keep_rule=positive", "selection.keep_cutoff=-1"],
    ],
)
def test_keep_values_the_rule_never_reads_are_rejected(overrides):
    with pytest.raises(ConfigError, match="keep_(k|cutoff)=.* read only by"):
        load_config(None, overrides)
    # on the command line too
    assert main(["run", *[a for o in overrides for a in ("--set", o)]]) == 2


def test_gamma_under_the_squared_loss_is_rejected(capsys):
    overrides = ["solver.loss=squared", "solver.gamma=0.5"]
    with pytest.raises(ConfigError, match=r"solver\.gamma=0\.5 is read only by solver\.loss="):
        load_config(None, overrides)
    assert main(["run", *[a for o in overrides for a in ("--set", o)]]) == 2
    assert "gamma" in capsys.readouterr().err
    # the default restated is fine, and the hinge reads any positive gamma
    assert load_config(None, ["solver.loss=squared", "solver.gamma=1.0"]).hyper.gamma == 1.0
    assert load_config(None, ["solver.gamma=0.5"]).hyper.make_loss().gamma == 0.5


def test_keep_values_the_rule_reads_are_accepted():
    top_k = load_config(None, ["selection.keep_rule=top_k", "selection.keep_k=3"])
    assert top_k.policy.keep_rule.k == 3
    cut = load_config(None, ["selection.keep_rule=threshold", "selection.keep_cutoff=0.2"])
    assert cut.policy.keep_rule.cutoff == 0.2
    # defaults restated under any rule are fine
    load_config(None, ["selection.keep_rule=threshold", "selection.keep_k=1"])
    # a key read only by some policies stays legal: compare runs one config under several
    random = load_config(
        None, ["orchestrator.policy=random", "selection.keep_rule=top_k", "selection.keep_k=3"]
    )
    assert random.policy.kind == "random"


@pytest.mark.parametrize(
    "overrides",
    [
        ["data.source=synthetic", "data.validation_size=7"],
        ["data.source=synthetic", "data.device_test_fraction=0.5"],
        ["data.source=synthetic", "data.shards_per_device=9"],
        ["data.source=synthetic", "data.unbalanced=true"],
        ["data.synthetic_dim=7"],
        ["data.source=idx", "data.synthetic_train_size=100"],
        ["data.synthetic_separation=1.5"],
    ],
)
def test_data_values_the_source_never_reads_are_rejected(overrides, capsys):
    key = overrides[-1].partition("=")[0]
    with pytest.raises(ConfigError, match=rf"{key}=.* is read only by data\.source="):
        load_config(None, overrides)
    assert main(["run", *[a for o in overrides for a in ("--set", o)]]) == 2
    assert key in capsys.readouterr().err


def test_data_values_the_source_reads_are_accepted():
    synthetic = ["data.source=synthetic", "data.synthetic_dim=7", "data.synthetic_separation=1.5"]
    assert load_config(None, synthetic).values["data"]["synthetic_dim"] == 7
    idx = ["data.validation_size=7", "data.unbalanced=true", "data.shards_per_device=9"]
    assert load_config(None, idx).values["data"]["shards_per_device"] == 9
    # defaults restated under either source are fine, and so is a data_dir
    load_config(None, ["data.source=synthetic", "data.validation_size=5000", "data.data_dir=x"])
    load_config(None, ["data.synthetic_dim=20", "data.data_dir=x"])


def _just_outside(tag: str, legal: str) -> list[str]:
    """The values just past each finite end of an interval such as "(0, 1]"."""
    lo, hi = (float(end) for end in legal[1:-1].split(","))
    outside = []
    if math.isfinite(lo):
        step = lo - 1 if tag == "int" else np.nextafter(lo, -np.inf)
        outside.append(lo if legal[0] == "(" else step)
    if math.isfinite(hi):
        step = hi + 1 if tag == "int" else np.nextafter(hi, np.inf)
        outside.append(hi if legal[-1] == ")" else step)
    return [str(int(v)) if tag == "int" else repr(float(v)) for v in outside]


def _other_value(tag: str, default) -> str:
    """A legal value of the key that is not its default."""
    if tag == "bool":
        return str(not default).lower()
    if tag == "int":
        return str(default + 1)
    return repr(default / 2 if default else 0.5)


def _setting(key: str):
    section, _, name = key.partition(".")
    return DEFAULTS[section][name]


def _schema_cases() -> list[tuple[str, ...]]:
    """Every key's refusal candidates, derived from its DEFAULTS entry."""
    cases = []
    for keys in DEFAULTS.values():
        for spec in keys.values():
            name, tag = spec.key, spec.tag
            raws = ["bogus"]
            if tag.endswith("float"):
                raws += ["nan", "inf", "-inf"]
            if isinstance(spec.legal, str):
                raws += _just_outside(tag, spec.legal)
            cases += [(f"{name}={raw}",) for raw in raws]
            read = ()
            if spec.reader is not None:
                reader_name, wanted = spec.reader
                read = (f"{reader_name}={wanted}",)
                for unread in _setting(reader_name).legal:
                    if unread != wanted:
                        cases.append(
                            (f"{reader_name}={unread}", f"{name}={_other_value(tag, spec.default)}")
                        )
            if spec.bound is not None:
                # just past the other key's default, which the case leaves alone
                relation, other = spec.bound
                limit = _setting(other).default
                step = 1 if tag == "int" else limit
                cases.append((*read, f"{name}={limit + step if relation == '<=' else limit - step}"))
    return cases


# The cases that build a config, each with the reason it is legal.
LEGAL_CASES = {
    ("data.data_dir=bogus",): "a path, read when the split is built",
    ("orchestrator.out_dir=bogus",): "a path the run creates",
    ("valuation.trunc_tol=inf",): "every walk truncates at step 0",
    # a key read only by some policies: compare runs one config under every policy
    ("orchestrator.policy=greedy", "selection.c_fraction=0.5"): "greedy explores every device",
    ("orchestrator.policy=random", "valuation.delta_t=5"): "only cds values contributions",
    ("orchestrator.policy=random", "selection.keep_rule=threshold"): "only cds keeps by rule",
    ("orchestrator.policy=greedy", "selection.beta_persistence=true"): "only cds keeps betas",
    ("orchestrator.policy=cds", "selection.greedy_early_stop=false"): "only greedy stops early",
}
SCHEMA_CASES = _schema_cases()


@pytest.mark.parametrize(
    "overrides",
    SCHEMA_CASES + [case for case in LEGAL_CASES if case not in SCHEMA_CASES],
    ids=" ".join,
)
def test_every_key_refuses_what_its_entry_does_not_allow(overrides, tmp_path, capsys, monkeypatch):
    # a case wrongly legal then stops at the empty data_dir, before any split is read
    monkeypatch.delenv("FEDSEL_DATA_DIR", raising=False)
    if overrides in LEGAL_CASES:
        load_config(None, list(overrides))
        return
    # refused before any split is built: exit 2 naming the key, and no run directory
    out = tmp_path / "run"
    code = main(["run", "--out", str(out), *[a for o in overrides for a in ("--set", o)]])
    key = overrides[-1].partition("=")[0]
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


# Each key a library setting backs, with the dataclass field that declares it
LIBRARY_KEYS = {
    spec.key: (owner, name)
    for owner in (Hyperparams, KeepRule, SelectionPolicy, ExperimentConfig)
    for name, spec in declared(owner).items()
}
# Each [data] and [cost] key, with the argument that takes it in each library
# function that does; range arguments hold two keys, named arg[0] and arg[1]
FUNCTION_KEYS = {
    load_idx_split: {
        "data.num_devices": "num_devices",
        "data.shards_per_device": "shards_per_device",
        "data.validation_size": "validation_size",
        "data.device_test_fraction": "device_test_fraction",
        "data.unbalanced": "unbalanced",
    },
    generate_synthetic: {
        "data.synthetic_dim": "dim",
        "data.synthetic_train_size": "train_size",
        "data.num_devices": "num_devices",
        "data.synthetic_separation": "separation",
    },
    sample_profiles: {
        "cost.cpu_freq_min_hz": "cpu_freq_range_hz[0]",
        "cost.cpu_freq_max_hz": "cpu_freq_range_hz[1]",
        "cost.cycles_per_bit_min": "cycles_per_bit_range[0]",
        "cost.cycles_per_bit_max": "cycles_per_bit_range[1]",
        "cost.snr_min": "snr_range[0]",
        "cost.snr_max": "snr_range[1]",
        "cost.bandwidth_hz": "bandwidth_hz",
    },
}
# the data.source under which build_split calls each data function
SOURCE_OF = {load_idx_split: "idx", generate_synthetic: "synthetic"}


def _library_value(raw: str):
    """The value a library caller passes where a config file holds raw."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(raw, raw)


def _functions_of(case: tuple[str, ...]) -> list:
    """The functions that take every key of case; data.source may pick the function."""
    values = dict(item.partition("=")[::2] for item in case)
    return [
        function for function, keys in FUNCTION_KEYS.items()
        if case[-1].partition("=")[0] in keys
        and all(
            key in keys or (key == "data.source" and raw == SOURCE_OF.get(function))
            for key, raw in values.items()
        )
    ]


def _call(function, case: tuple[str, ...], data_dir: Path):
    """function at its keys' defaults, but at the values case gives them."""
    given = {key: _library_value(raw) for key, _, raw in (i.partition("=") for i in case)}
    kwargs: dict = {}
    for key, argument in FUNCTION_KEYS[function].items():
        value = given.get(key, _setting(key).default)
        name, _, end = argument.partition("[")
        kwargs[name] = kwargs.get(name, ()) + (value,) if end else value
    if function is load_idx_split:
        return load_idx_split(data_dir, seed=1, **kwargs)
    if function is generate_synthetic:
        return generate_synthetic(seed=1, **kwargs)
    return sample_profiles(2, [1, 1], feature_count=2, seed=0, **kwargs)


def _library_cases() -> list[tuple[str, ...]]:
    """The table's cases on library keys only, plus the non-integers an int
    key's parser refuses and the library receives as floats."""
    cases = [
        case for case in SCHEMA_CASES + list(LEGAL_CASES)
        if all(item.partition("=")[0] in LIBRARY_KEYS for item in case) or _functions_of(case)
    ]
    for keys in DEFAULTS.values():
        for spec in keys.values():
            if spec.tag == "int" and (spec.key in LIBRARY_KEYS or _functions_of((spec.key,))):
                cases += [(f"{spec.key}={raw}",) for raw in ("2.5", "nan")]
    return list(dict.fromkeys(cases))


@pytest.mark.parametrize("overrides", _library_cases(), ids=" ".join)
def test_library_refuses_what_the_config_table_refuses(overrides, tmp_path):
    # among the cases: Hyperparams(reg_lambda=inf), (gamma=inf), (trunc_tol=nan),
    # (delta_t=nan), (epochs=2.5), (seed=-1), (loss="bogus"), (loss="squared",
    # gamma=0.5), KeepRule(cutoff=inf) and (cutoff=nan); load_idx_split(
    # validation_size=0), generate_synthetic(separation=-1.0 or nan),
    # (train_size=99) under 100 devices, sample_profiles(snr_range=(-1.0, 15.0))
    # and (bandwidth_hz=inf)
    functions = _functions_of(overrides)
    if functions:
        with pytest.raises(ConfigError):
            load_config(None, list(overrides))
        # the refusal names the argument, before any IDX file is read
        for function in functions:
            argument = FUNCTION_KEYS[function][overrides[-1].partition("=")[0]]
            with pytest.raises(ValueError, match="^" + re.escape(argument) + "[ =]"):
                _call(function, overrides, tmp_path)
        return
    arguments: dict = {}
    for item in overrides:
        key, _, raw = item.partition("=")
        owner, name = LIBRARY_KEYS[key]
        arguments.setdefault(owner, {})[name] = _library_value(raw)

    def build():
        for owner, kwargs in arguments.items():
            if owner is ExperimentConfig:
                owner(Hyperparams(), SelectionPolicy(), **kwargs)
            else:
                owner(**kwargs)

    if overrides in LEGAL_CASES:
        load_config(None, list(overrides))
        build()
        return
    with pytest.raises(ConfigError):
        load_config(None, list(overrides))
    # the refusal names the field, as Class.field
    owner, name = LIBRARY_KEYS[overrides[-1].partition("=")[0]]
    with pytest.raises(ValueError, match="^" + re.escape(f"{owner.__name__}.{name}") + r"\b"):
        build()
    if owner is ExperimentConfig and name != "out_dir":
        # Experiment takes these as arguments, and its run takes rounds
        kwargs = dict(arguments[owner])
        rounds = kwargs.pop("rounds", 0)
        split = generate_synthetic(dim=3, train_size=40, num_devices=4, separation=3.0, seed=1)
        with pytest.raises(ValueError, match="^" + name + r"\b"):
            Experiment(split, Hyperparams(), SelectionPolicy(), **kwargs).run(rounds)


def test_library_fields_and_config_keys_stay_paired():
    # every field build_config sets from a key declares that key
    built = {"hyper", "policy", "keep_rule", "values"}  # fields that hold no one key's value
    for owner in (Hyperparams, KeepRule, SelectionPolicy, ExperimentConfig):
        for field in dataclasses.fields(owner):
            assert field.name in built or "setting" in field.metadata, field.name
    assert sorted(LIBRARY_KEYS) == sorted(
        spec.key for section in ("solver", "selection", "valuation", "orchestrator")
        for spec in DEFAULTS[section].values()
    )
    # every Setting that any fedsel module or dataclass holds, by key: each
    # key is declared once (losses.GAMMA and LOSS are shared, not copied),
    # and the table's entry is that very object
    owners = [module for name, module in sys.modules.items() if name.startswith("fedsel.")]
    owners += [
        value for module in list(owners) for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
    ]
    declarations: dict[str, set[int]] = {}
    objects = {}
    for owner in owners:
        for spec in declared(owner).values():
            declarations.setdefault(spec.key, set()).add(id(spec))
            objects[id(spec)] = spec
    assert {key for key, ids in declarations.items() if len(ids) > 1} == set()
    table = {spec.key: spec for keys in DEFAULTS.values() for spec in keys.values()}
    assert sorted(table) == sorted(declarations)
    for key, spec in table.items():
        assert declarations[key] == {id(spec)}, key
    # the data and cost keys are the constants of the modules that read them
    assert {spec.key for spec in declared(data).values()} == {f"data.{k}" for k in DEFAULTS["data"]}
    assert {spec.key for spec in declared(cost).values()} == {f"cost.{k}" for k in DEFAULTS["cost"]}


def test_load_config_flag_patches():
    cfg = load_config(None, ["orchestrator.seed=5"], seed=9, policy="greedy", out_dir="x")
    assert cfg.hyper.seed == 9  # flags win over --set
    assert cfg.policy.kind == "greedy"
    assert cfg.out_dir == "x"
    assert cfg.payload()["orchestrator"]["policy"] == "greedy"


def test_build_split_synthetic_and_missing_idx_dir(monkeypatch):
    cfg = load_config(None, [
        "data.source=synthetic", "data.num_devices=5",
        "data.synthetic_train_size=200", "data.synthetic_dim=6",
    ])
    split = cfg.build_split()
    assert len(split.devices) == 5
    assert split.feature_dim == 7  # dim plus bias column

    monkeypatch.delenv("FEDSEL_DATA_DIR", raising=False)
    with pytest.raises(ConfigError, match="FEDSEL_DATA_DIR"):
        load_config(None, []).build_split()


def test_readme_config_block_shows_every_key_with_its_entry(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    shown: dict[str, dict[str, str]] = {}
    for line in block.splitlines():
        if line.startswith("["):
            section = shown.setdefault(line.strip("[]"), {})
        elif line and not line.startswith("#"):
            setting, _, comment = line.partition("#")
            section[setting.partition("=")[0].strip()] = comment
    assert {s: sorted(keys) for s, keys in shown.items()} == {
        s: sorted(keys) for s, keys in DEFAULTS.items()
    }
    # each line states its key's legal values, bound and reader, and its value is the default
    for section, keys in DEFAULTS.items():
        for key, spec in keys.items():
            comment, legal, reader = shown[section][key], spec.legal, spec.reader
            if legal is not None:
                assert (legal if isinstance(legal, str) else " | ".join(legal)) in comment, key
            # a bound shows as "<= other_key" or ">= other_key", and only a bound does
            shown_bound = re.search(r"[<>]= \w+", comment)
            bound = spec.bound and f"{spec.bound[0]} {spec.bound[1].partition('.')[2]}"
            assert (shown_bound and shown_bound.group()) == bound, key
            if reader is not None:
                assert f"read when {reader[0]} = {reader[1]}" in comment, key
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    assert read_config_file(path) == default_values()


# -- CLI --------------------------------------------------------------------------


def test_cli_requires_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_run_tiny_synthetic(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", *TINY, "--quiet", "--out", str(out),
                 "--set", "valuation.delta_t=5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "policy=cds" in captured.out
    assert "final_acc=" in captured.out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["valuation"]["delta_t"] == 5
    assert manifest["status"] == "complete"
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header + initial row + two rounds


def test_cli_run_logs_rounds_unless_quiet(capsys):
    assert main(["run", *TINY]) == 0
    noisy = capsys.readouterr().out
    assert "round " in noisy
    assert main(["run", *TINY, "--quiet"]) == 0
    quiet = capsys.readouterr().out
    assert "round " not in quiet


def test_cli_run_config_error_exits_2(capsys):
    code = main(["run", "--set", "orchestrator.policy=oracle"])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err

    code = main(["run", "--config", "/nonexistent/exp.ini"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err

    for key in ("solver.block_size=10", "solver.eta=0.01", "solver.local_solver=dual"):
        assert main(["run", "--set", key]) == 2
        assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key",
    [
        "data.synthetic_separation", "cost.cpu_freq_max_hz", "cost.cycles_per_bit_max",
        "cost.snr_max", "cost.bandwidth_hz", "solver.gamma", "solver.reg_lambda",
    ],
)
def test_cli_run_refuses_an_infinite_value(key, tmp_path, capsys):
    # before any data is built: no NaN metrics, no OverflowError mid-run
    code = main(["run", *TINY, "--quiet", "--out", str(tmp_path / "run"), "--set", f"{key}=inf"])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and f"{key} must be in" in err
    assert not (tmp_path / "run").exists()


def test_cli_run_refuses_a_round_cost_that_overflows(tmp_path, capsys):
    # finite ranges whose compute time overflows: no run writes cum_cost_s=inf
    out = tmp_path / "run"
    code = main([
        "run", *TINY, "--quiet", "--out", str(out), "--set", "cost.cycles_per_bit_max=1e308",
    ])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "seed_args", [["--set", "orchestrator.seed=-1"], ["--seed", "-1"]]
)
def test_cli_run_refuses_a_negative_seed(seed_args, tmp_path, capsys):
    # numpy seeds only non-negative integers, and its error names no key
    code = main(["run", *TINY, "--quiet", "--out", str(tmp_path / "run"), *seed_args])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "orchestrator.seed" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "override", ["data.synthetic_dim=0", "data.synthetic_train_size=4"]  # TINY has 5 devices
)
def test_cli_run_refuses_synthetic_sizes_it_cannot_split(override, tmp_path, capsys):
    code = main(["run", *TINY, "--quiet", "--out", str(tmp_path / "run"), "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and override.partition("=")[0] in err
    assert not (tmp_path / "run").exists()


def test_cli_compare_merges_runs_and_dedups(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main([
        "compare", *TINY, "--quiet", "--out", str(out),
        "--policies", "cds,random,cds", "--seeds", "1,2",
        "--target-accuracy", "0.5",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "duplicate policy 'cds'" in captured.err
    assert "median_rounds_to_0.5" in captured.out

    merged = (out / "merged_metrics.csv").read_text().splitlines()
    # 2 policies x 2 seeds x (initial row + 2 rounds) + header
    assert len(merged) == 1 + 4 * 3
    assert merged[0].startswith("seed,round,policy")
    # each run's own metrics.csv, seed first, in run order
    want = []
    for seed in (1, 2):
        for policy in ("cds", "random"):
            header, *rows = (out / f"{policy}_seed{seed}" / "metrics.csv").read_text().splitlines()
            want.extend(f"{seed},{row}" for row in rows)
    assert merged == ["seed," + header, *want]
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "policy,seed,rounds_to_0.5,cum_cost_at_target_s,final_acc,status"
    assert len(summary) == 1 + 4
    assert all(line.endswith(",complete") for line in summary[1:])
    assert (out / "cds_seed1" / "metrics.csv").exists()
    assert (out / "random_seed2" / "manifest.json").exists()


def test_cli_compare_drops_a_repeated_seed_by_value(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main([
        "compare", *TINY, "--quiet", "--out", str(out), "--policies", "cds", "--seeds", "1,01",
    ])
    assert code == 0
    assert "warning: duplicate seed 1 ignored" in capsys.readouterr().err
    summary = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in summary[1:]] == [["cds", "1"]]
    header, *rows = (out / "cds_seed1" / "metrics.csv").read_text().splitlines()
    merged = (out / "merged_metrics.csv").read_text().splitlines()
    assert merged == ["seed," + header, *(f"1,{row}" for row in rows)]


def test_cli_compare_writes_nothing_before_its_first_split_exists(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEDSEL_DATA_DIR", raising=False)
    out = tmp_path / "cmp"
    code = main([
        "compare", "--set", "data.source=idx", "--set", "data.data_dir=",
        "--policies", "cds", "--seeds", "1", "--out", str(out),
    ])
    assert code == 2
    assert "config error: data.data_dir is empty" in capsys.readouterr().err
    assert not out.exists()


def test_cli_compare_keeps_going_after_a_failed_run(tmp_path, capsys, monkeypatch):
    run_round = Experiment.run_round

    def failing(self, state, round_index):
        if self.policy.kind == "random" and self.hyper.seed == 1 and round_index == 2:
            raise ValueError("local solve diverged")
        return run_round(self, state, round_index)

    monkeypatch.setattr(Experiment, "run_round", failing)
    out = tmp_path / "cmp"
    code = main([
        "compare", *TINY, "--quiet", "--out", str(out),
        "--policies", "cds,random", "--seeds", "1,2", "--target-accuracy", "0.5",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed policy=random seed=1: ValueError: local solve diverged" in captured.err
    manifest = json.loads((out / "random_seed1" / "manifest.json").read_text())
    assert manifest["status"] == "failed"

    # the three runs that finished, as in their own metrics.csv
    merged = (out / "merged_metrics.csv").read_text().splitlines()
    want = []
    for policy, seed in (("cds", 1), ("cds", 2), ("random", 2)):
        header, *rows = (out / f"{policy}_seed{seed}" / "metrics.csv").read_text().splitlines()
        want.extend(f"{seed},{row}" for row in rows)
    assert merged == ["seed," + header, *want]
    summary = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
    assert [(row[0], row[1], row[-1]) for row in summary[1:]] == [
        ("cds", "1", "complete"), ("random", "1", "failed"),
        ("cds", "2", "complete"), ("random", "2", "complete"),
    ]
    assert summary[2] == ["random", "1", "", "", "", "failed"]


# a legal lambda whose Grams overflow to inf: without the guard every round
# ran to exit 0 with no coordinate moved and test_acc stuck at 0.5
TINY_LAMBDA = [
    "--config", str(CONFIG_DIR / "synthetic_quick.ini"),
    "--set", "solver.reg_lambda=5e-324", "--set", "orchestrator.rounds=3",
]


def test_cli_run_fails_on_a_floating_point_fault(tmp_path, capsys):
    errors = np.geterr()
    out = tmp_path / "tiny_lambda"
    assert main(["run", *TINY_LAMBDA, "--quiet", "--out", str(out)]) == 1
    assert "error: overflow encountered" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("FloatingPointError: overflow encountered")
    assert np.geterr() == errors  # the guard holds only inside the run


def test_cli_compare_lists_a_floating_point_fault_as_failed(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main([
        "compare", *TINY_LAMBDA, "--quiet", "--out", str(out),
        "--policies", "cds,random", "--seeds", "1",
    ])
    assert code == 1
    err = capsys.readouterr().err
    for policy in ("cds", "random"):  # the sweep went on after the first fault
        assert f"failed policy={policy} seed=1: FloatingPointError" in err
        manifest = json.loads((out / f"{policy}_seed1" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1:] == ["cds,1,,,,failed", "random,1,,,,failed"]


@pytest.mark.parametrize("target", ["nan", "1.5", "-1", "0"])
def test_cli_compare_refuses_an_accuracy_target_no_run_can_report(target, tmp_path, capsys):
    # nan and 1.5 are never reached, and -1 and 0 are met by the initial model
    out = tmp_path / "cmp"
    code = main(["compare", *TINY, "--quiet", "--out", str(out), "--target-accuracy", target])
    assert code == 2
    assert "config error: --target-accuracy must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "policies, seeds, key",
    [("cds,bogus", "1", "orchestrator.policy"), ("cds", "1,-1", "orchestrator.seed")],
)
def test_cli_compare_checks_every_config_before_its_first_run(policies, seeds, key, tmp_path, capsys):
    # a bad entry late in either list is refused before the first run writes its directory
    out = tmp_path / "cmp"
    code = main([
        "compare", *TINY, "--quiet", "--out", str(out), "--policies", policies, "--seeds", seeds,
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


def test_cli_compare_parses_one_config_per_run(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return load_config(*args)

    monkeypatch.setattr(cli, "load_config", counted)
    out = tmp_path / "cmp"
    code = main([
        "compare", *TINY, "--quiet", "--out", str(out), "--policies", "cds,random", "--seeds", "1,2",
    ])
    assert code == 0
    assert len(calls) == 2 * 2
    assert (out / "summary.csv").exists() and (out / "random_seed2" / "metrics.csv").exists()


def test_cli_compare_rejects_bad_seed(capsys):
    code = main(["compare", *TINY, "--seeds", "1,x"])
    assert code == 2
    assert "not an integer" in capsys.readouterr().err


def test_cli_selfcheck_single_suite(capsys):
    code = main(["selfcheck", "--suite", "conjugate"])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS] conjugate" in captured.out


def test_cli_selfcheck_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", "--suite", "gradients"])
    assert exc.value.code == 2


def test_selfcheck_catches_a_corrupted_conjugate(capsys):
    class BrokenLoss:
        def value(self, margins, labels):
            return 0.5 * (np.asarray(margins) - labels) ** 2

        def conjugate(self, duals, labels):
            return np.zeros_like(np.asarray(duals, dtype=float))

        def __repr__(self):
            return "BrokenLoss()"

    ok = run_selfcheck(["conjugate"], conjugate_losses=[BrokenLoss()])
    captured = capsys.readouterr()
    assert ok is False
    assert "[FAIL] conjugate" in captured.out


@pytest.mark.parametrize(
    "command, flag",
    [
        ("compare", ["--seed", "3"]),
        ("compare", ["--policy", "random"]),
        ("partition-report", ["--out", "report_out"]),
        ("partition-report", ["--quiet"]),
        ("partition-report", ["--policy", "random"]),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_cli_rejects_flags_the_subcommand_never_reads(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *TINY, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_cli_partition_report(capsys):
    code = main(["partition-report", *TINY])
    captured = capsys.readouterr()
    assert code == 0
    assert "devices=5" in captured.out
    assert captured.out.count("device ") == 5
    assert "labels={" in captured.out


def test_cli_partition_report_counts_held_out_rows_without_reading_them(
    tmp_path, capsys, monkeypatch
):
    corpus = data.write_synthetic_image_corpus(
        tmp_path, num_classes=3, side=4, train_size=300, test_size=50, seed=6
    )
    args = dict(num_devices=4, shards_per_device=2, seed=2, validation_size=30)
    split = load_idx_split(corpus, **args)
    decodes = []
    decode = data._decode_pixels

    def spy(images, ids, out=None):
        decodes.append(out is None)  # a new matrix: a set-up decode
        return decode(images, ids, out)

    monkeypatch.setattr(data, "_decode_pixels", spy)
    code = main([
        "partition-report", "--seed", "2", "--set", f"data.data_dir={corpus}",
        "--set", "data.num_devices=4", "--set", "data.validation_size=30",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert decodes == [True]  # the validation matrix only: no training row is read
    assert f"validation=30 test={len(split.test_labels)}" in captured.out
    lines = [line for line in captured.out.splitlines() if line.startswith("device ")]
    assert len(lines) == 4
    for line, dev in zip(lines, split.devices):
        assert f"train={dev.size:5d} test={len(dev.test_features):4d} " in line


# -- package surface -------------------------------------------------------------

PUBLIC_NAMES = [
    "CoalitionGame", "CoalitionOracle", "ConfigError", "DataFormatError", "DeviceDataset",
    "Experiment", "ExperimentConfig", "ExperimentResult", "GlobalState", "Hyperparams",
    "KeepRule", "LOSSES", "SelectionPolicy", "SmoothedHinge", "SplitDataset", "SquaredLoss",
    "__version__", "device_update", "duality_gap", "exact_shapley",
    "generate_synthetic", "load_config", "load_idx_split", "make_loss", "tmc_estimate",
]


def test_public_names_are_pinned():
    # a name added to or dropped from fedsel.__all__ shows up in this list's diff
    import fedsel

    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(fedsel.__all__) == len(set(fedsel.__all__))
    assert sorted(fedsel.__all__) == PUBLIC_NAMES
    for name in fedsel.__all__:
        assert getattr(fedsel, name) is not None, name


def test_no_module_imports_a_name_it_never_uses():
    # the repo has no linter: an import nothing reads is dead code; a name a
    # module lists in __all__ is re-exported, and __future__ imports are flags
    unused = {}
    for path in sorted(Path(data.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        if imported - used - exported:
            unused[path.name] = sorted(imported - used - exported)
    assert unused == {}


def test_every_module_constant_is_read_somewhere():
    # an upper-case module-level name that nothing in src/fedsel, tests or
    # perfbench reads is dead code; a Setting is read through vars by
    # settings.declared, so it is exempt
    src = Path(data.__file__).parent
    defined = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "Setting":
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id):
                        defined[name.id] = path.name
    read = set()
    for folder in (src, Path(__file__).parent, src.parents[1] / "perfbench"):
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert defined  # the scan found the module constants
    assert {name: module for name, module in defined.items() if name not in read} == {}
