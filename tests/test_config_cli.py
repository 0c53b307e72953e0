"""Config parsing/validation and the command-line contract."""
import json
from pathlib import Path

import numpy as np
import pytest

from fedsel.cli import main
from fedsel.config import (
    DEFAULTS,
    ConfigError,
    apply_overrides,
    build_config,
    default_values,
    load_config,
    read_config_file,
)
from fedsel.selfcheck import run_selfcheck

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

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
    f"{section}.{key}"
    for section, keys in DEFAULTS.items()
    for key, (tag, _) in keys.items()
    if tag in ("float", "opt_float")
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
    ],
)
def test_build_config_validation(override, message):
    with pytest.raises(ConfigError, match=message):
        load_config(None, [override])


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
    with pytest.raises(ConfigError, match="gamma=0.5 is read only by the smoothed_hinge"):
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
    "key", ["data.synthetic_separation", "cost.cpu_freq_max_hz", "cost.snr_max"]
)
def test_cli_run_refuses_an_infinite_value(key, tmp_path, capsys):
    # before any data is built: no NaN metrics, no OverflowError mid-run
    code = main(["run", *TINY, "--quiet", "--out", str(tmp_path / "run"), "--set", f"{key}=inf"])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and key in err and "finite" in err
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
    assert summary[0] == "policy,seed,rounds_to_0.5,cum_cost_at_target_s,final_acc"
    assert len(summary) == 1 + 4
    assert (out / "cds_seed1" / "metrics.csv").exists()
    assert (out / "random_seed2" / "manifest.json").exists()


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


# -- package surface -------------------------------------------------------------

PUBLIC_NAMES = [
    "CoalitionGame", "CoalitionOracle", "ConfigError", "ContributionLedger",
    "DataFormatError", "DeviceDataset", "DeviceProfile", "Experiment",
    "ExperimentConfig", "ExperimentResult", "GlobalState", "Hyperparams", "KeepRule",
    "LOSSES", "LocalUpdate", "RoundMetrics", "RoundPlan", "RunManifest",
    "SelectionPolicy", "SmoothedHinge", "SplitDataset", "SquaredLoss", "__version__",
    "apply_dual_update", "comm_time", "compute_time", "device_update",
    "device_update_ovr", "dual_objective", "duality_gap", "evaluate_global",
    "exact_shapley", "exploit_select", "explore_select", "fairness_audit",
    "generate_synthetic", "load_config", "load_idx_split", "make_loss", "parse_idx",
    "primal_objective", "sample_profiles", "schedule_cost", "tmc_estimate", "write_idx",
]


def test_public_names_are_pinned():
    # a name added to or dropped from fedsel.__all__ shows up in this list's diff
    import fedsel

    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(fedsel.__all__) == len(set(fedsel.__all__))
    assert sorted(fedsel.__all__) == PUBLIC_NAMES
    for name in fedsel.__all__:
        assert getattr(fedsel, name) is not None, name
