"""Command-line front end: run experiments, compare policies, self-check.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 config
error (argparse uses 2 for bad flags as well). Subcommands:

  run                one experiment from a config file plus overrides
  compare            a (policy x seed) sweep with a rounds-to-target table
  selfcheck          built-in oracle suites, optionally filtered by --suite
  partition-report   per-device label histograms for the configured split
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULTS, ConfigError, ExperimentConfig, check_legal, load_config
from .data import DataFormatError
from .orchestrator import CSV_HEADER, Experiment, ExperimentResult, fast_paths, rounds_to_target
from .selfcheck import SUITES, run_selfcheck


# every flag a subcommand may take; each subcommand registers only those it reads
_FLAGS = {
    "--config": dict(type=Path, default=None, help="config file path"),
    "--seed": dict(type=int, default=None, help="master seed override"),
    "--set": dict(
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (section.key=value, repeatable)",
    ),
    "--out": dict(default=None, help="output directory"),
    "--policy": dict(default=None, help="selection policy override"),
    "--quiet": dict(action="store_true", help="suppress per-round logs"),
}


def _add_flags(sp: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        sp.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsel",
        description="Contribution-based device selection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_flags(run_p, *_FLAGS)

    # no abbreviations, so --seed and --policy cannot stand for --seeds and --policies
    cmp_p = sub.add_parser(
        "compare", help="paired policy/seed sweep", allow_abbrev=False
    )
    _add_flags(cmp_p, "--config", "--set", "--out", "--quiet")
    cmp_p.add_argument(
        "--policies", default="cds,random,greedy", help="comma-separated policy list"
    )
    cmp_p.add_argument("--seeds", default="1,2,3", help="comma-separated seed list")
    cmp_p.add_argument(
        "--target-accuracy",
        type=float,
        default=0.8,
        help="accuracy level for the rounds-to-target table",
    )

    check_p = sub.add_parser("selfcheck", help="run built-in oracle suites")
    check_p.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=sorted(SUITES),
        help="run only this suite (repeatable)",
    )

    part_p = sub.add_parser(
        "partition-report", help="print per-device label histograms"
    )
    _add_flags(part_p, "--config", "--set", "--seed")
    return parser


def _run(cfg: ExperimentConfig, split, out_dir, quiet: bool) -> ExperimentResult:
    """One run of cfg on split, as `run` and every run of `compare` make it."""
    experiment = Experiment(
        split, cfg.hyper, cfg.policy,
        eval_every=cfg.eval_every, stop_at_accuracy=cfg.stop_at_accuracy,
        cost_ranges=cfg.cost_ranges(),
    )
    return experiment.run(
        cfg.rounds, out_dir=out_dir, config_payload=cfg.payload(),
        log=None if quiet else print,
    )


def _warn_declined_fast_paths() -> None:
    for name, record in fast_paths().items():
        if record["status"] != "c":
            print(f"warning: {name} falls back to numpy: {record['reason']}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides, args.seed, args.policy, args.out)
    _warn_declined_fast_paths()
    result = _run(cfg, cfg.build_split(), cfg.out_dir, args.quiet)
    last = result.metrics[-1]
    print(
        f"policy={result.policy} seed={result.seed} rounds={last.round_index} "
        f"final_acc={last.test_acc:.4f} cum_cost_s={last.cum_cost_s:.3f} "
        f"stop={result.stop_reason}"
        + (f" out={result.out_dir}" if result.out_dir else "")
    )
    return 0


def _dedup(items: list[str], what: str) -> list[str]:
    seen: list[str] = []
    for item in items:
        if item in seen:
            print(f"warning: duplicate {what} {item!r} ignored", file=sys.stderr)
        else:
            seen.append(item)
    return seen


def cmd_compare(args: argparse.Namespace) -> int:
    policies = _dedup([p.strip() for p in args.policies.split(",") if p.strip()], "policy")
    seeds = _dedup([s.strip() for s in args.seeds.split(",") if s.strip()], "seed")
    if not policies or not seeds:
        raise ConfigError("compare needs at least one policy and one seed")
    seed_ints = []
    for s in seeds:
        try:
            seed_ints.append(int(s))
        except ValueError:
            raise ConfigError(f"seed {s!r} is not an integer") from None
    # a legal accuracy target is one that orchestrator.stop_at_accuracy accepts
    legal_accuracy = DEFAULTS["orchestrator"]["stop_at_accuracy"][2]
    check_legal("--target-accuracy", args.target_accuracy, legal_accuracy)

    base = load_config(args.config, args.overrides, None, None, args.out)
    out_root = Path(base.out_dir) if base.out_dir else Path("compare_out")
    out_root.mkdir(parents=True, exist_ok=True)
    _warn_declined_fast_paths()

    merged_lines: list[str] = []
    table: list[dict] = []
    for seed in seed_ints:
        split = None
        for policy in policies:
            cfg = load_config(args.config, args.overrides, seed, policy, args.out)
            if split is None:
                # one split per seed; every policy sees identical data and
                # identical exploration draws, so comparisons are paired
                split = cfg.build_split()
            result = _run(cfg, split, out_root / f"{policy}_seed{seed}", args.quiet)
            merged_lines.extend(f"{seed},{m.csv_line()}" for m in result.metrics)
            reached = rounds_to_target(result.metrics, args.target_accuracy)
            cost = next(
                (
                    m.cum_cost_s
                    for m in result.metrics
                    if reached is not None and m.round_index == reached
                ),
                float("nan"),
            )
            table.append(
                {
                    "policy": policy,
                    "seed": seed,
                    "rounds": reached,
                    "cost": cost,
                    "final_acc": result.metrics[-1].test_acc,
                }
            )
            if not args.quiet:
                print(
                    f"done policy={policy} seed={seed} "
                    f"rounds_to_{args.target_accuracy}={reached} "
                    f"final_acc={result.metrics[-1].test_acc:.4f}"
                )

    merged_path = out_root / "merged_metrics.csv"
    with open(merged_path, "w", encoding="utf-8") as fh:
        fh.write("seed," + CSV_HEADER)
        fh.writelines(merged_lines)

    target_col = f"rounds_to_{args.target_accuracy:g}"
    summary_path = out_root / "summary.csv"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(f"policy,seed,{target_col},cum_cost_at_target_s,final_acc\n")
        for entry in table:
            rounds = "" if entry["rounds"] is None else entry["rounds"]
            fh.write(
                f"{entry['policy']},{entry['seed']},{rounds},"
                f"{repr(entry['cost'])},{repr(entry['final_acc'])}\n"
            )

    print(f"\n{'policy':<8} median_{target_col:<16} median_cost_at_target_s")
    for policy in policies:
        reached = [e["rounds"] for e in table if e["policy"] == policy]
        costs = [e["cost"] for e in table if e["policy"] == policy]
        if any(r is None for r in reached):
            med_r, med_c = "never", "n/a"
        else:
            med_r = f"{np.median(reached):g}"
            med_c = f"{np.median(costs):.3f}"
        print(f"{policy:<8} {med_r:<23} {med_c}")
    print(f"merged CSV: {merged_path}\nsummary CSV: {summary_path}")
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    return 0 if run_selfcheck(args.suite) else 1


def cmd_partition_report(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides, args.seed)
    split = cfg.build_split()
    print(
        f"devices={len(split.devices)} classes={split.num_classes} "
        f"train={split.total_train} validation={len(split.validation_labels)} "
        f"test={len(split.test_labels)}"
    )
    for device in split.devices:
        hist = device.label_histogram(split.num_classes)
        present = {int(c): int(n) for c, n in enumerate(hist) if n}
        test_n = 0 if device.test_features is None else len(device.test_labels)
        print(
            f"device {device.device_id:3d}: train={device.size:5d} "
            f"test={test_n:4d} labels={present}"
        )
    return 0


COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "selfcheck": cmd_selfcheck,
    "partition-report": cmd_partition_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
