"""fedsel benchmark: run one workload, or every workload with --all.

    python3 perfbench/run.py --workload grid_cds --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --all --seed 1

A workload run times its set-up in itself and in SETUP_SAMPLES - 1 fresh
child processes run one after another, then repeats measured passes until
--seconds of passes have been measured (at least one pass), checks every
pass's outputs, and prints its metrics one per line followed by a final JSON
line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the benchmark wraps fedsel's public
names with span recorders and reports per-layer metrics instead. The full
record (context, digests, every timing) goes to perfbench/_work/results/ and
the spans of a traced run to perfbench/_work/traces/.

The process is single-threaded apart from BLAS, which is capped at the
number of usable CPUs. Inputs depend only on --seed and the frozen corpus
recipe; FEDSEL_DATA_DIR is ignored.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = HERE / "_work"
PINNED = HERE / "digests.json"

WORKLOADS = ("grid_cds", "grid_greedy", "grid_tmc", "synthetic_sweep")
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The frozen surrogate-corpus recipe of the test suite (tests/conftest.py).
CORPUS_RECIPE = dict(
    seed=20240817, noise_scale=110.0, templates_per_class=3, background_weight=0.5
)
RSS_METHOD = "getrusage(RUSAGE_SELF).ru_maxrss of the benchmark process only"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "data.split_s": "s",
    "data.peak_rss_mib": "MiB",
    "config.load_s": "s",
    "solver.update_s": "s",
    "solver.updates": "count",
    "solver.coord_steps": "count",
    "solver.us_per_coord_step": "us",
    "solver.repeat_device_share": "share",
    "solver.apply_s": "s",
    "solver.fenchel_gap_s": "s",
    "valuation.value_calls": "count",
    "valuation.value_s": "s",
    "valuation.us_per_value_call": "us",
    "selection.select_s": "s",
    "selection.accept_ratio": "share",
    "cost.schedule_s": "s",
    "orchestrator.round_s": "s",
    "orchestrator.rounds": "count",
    "orchestrator.round_self_s": "s",
    "orchestrator.evaluate_s": "s",
    "orchestrator.evaluate_calls": "count",
    "orchestrator.evaluate_global_s": "s",
    "orchestrator.fairness_s": "s",
    "orchestrator.evaluate_self_s": "s",
    "trace.run_s": "s",
}
# Reported in the record and by --all, not in the final line: each is zero
# by construction on some workload.
WORKLOAD_SPECIFIC_UNITS = {
    "valuation.tmc_s": "s",
    "valuation.tmc_self_s": "s",
    "selection.greedy_s": "s",
    "selection.greedy_value_calls": "count",
    "cli.compare_self_s": "s",
    "orchestrator.run_self_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_digests() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def corpus_matches(directory: Path, expected: dict[str, str]) -> bool:
    return all(
        (directory / name).is_file() and sha256_file(directory / name) == digest
        for name, digest in expected.items()
    )


def ensure_corpus() -> Path:
    """The surrogate IDX corpus, written once per checkout by a child process."""
    expected = pinned_digests()["corpus"]
    corpus = WORK / "corpus"
    if corpus_matches(corpus, expected):
        return corpus
    staging = WORK / "corpus.partial"
    shutil.rmtree(staging, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--write-corpus", str(staging)],
        check=True,
    )
    if not corpus_matches(staging, expected):
        raise BenchmarkError("the generated corpus does not match its pinned digests")
    shutil.rmtree(corpus, ignore_errors=True)
    staging.rename(corpus)
    return corpus


def write_corpus(directory: Path) -> None:
    sys.path.insert(0, str(SOURCE))
    from fedsel.data import write_synthetic_image_corpus

    write_synthetic_image_corpus(directory, **CORPUS_RECIPE)


def prepare_environment() -> None:
    """Cap BLAS threads, drop the data-dir override, find the sources."""
    if not (SOURCE / "fedsel" / "__init__.py").is_file():
        raise BenchmarkError(f"no fedsel sources under {SOURCE}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(usable_cpus())
    os.environ.pop("FEDSEL_DATA_DIR", None)
    sys.path.insert(0, str(SOURCE))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "fedsel").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None
    return out.stdout.strip() or None


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def run_context(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "os_threads": os_threads(),
        "nproc": usable_cpus(),
        "corpus_recipe": CORPUS_RECIPE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rss_method": RSS_METHOD,
    }


def timed_setup(args, corpus: Path | None, recorder: spans.Recorder, traced: bool):
    """Import fedsel and set the workload up; returns (workload, span targets, seconds).

    The clock starts before `import fedsel` and stops where round 1 can start.
    """
    started = time.perf_counter()
    fedsel = importlib.import_module("fedsel")
    importlib.import_module("fedsel.cli")
    import_s = time.perf_counter() - started
    if Path(fedsel.__file__).resolve().parent != (SOURCE / "fedsel").resolve():
        raise BenchmarkError(f"imported fedsel from {fedsel.__file__}, not {SOURCE}")
    import workloads

    workload = workloads.make(
        args.workload, args.seed, ROOT / workloads.SWEEP_CONFIG, corpus, WORK
    )
    targets = spans.layer_targets(recorder, fedsel) if traced else []
    with spans.patched(targets), recorder.span("bench.setup"):
        started = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - started
    return workload, targets, import_s + setup_s


def probe_setup(args) -> list[float]:
    """Set-up seconds of SETUP_SAMPLES - 1 fresh child processes, one at a time."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(command, capture_output=True, text=True, check=True)
        samples.append(float(child.stdout.split()[-1]))
    return samples


def measure(args) -> dict:
    """Set up, run the measured passes, check them; return the full record."""
    prepare_environment()
    corpus = ensure_corpus() if args.workload != "synthetic_sweep" else None
    setup_samples = [] if args.trace else probe_setup(args)
    recorder = spans.Recorder()
    workload, targets, setup_s = timed_setup(args, corpus, recorder, bool(args.trace))
    setup_samples.append(setup_s)
    setup_rss = peak_rss_mib()

    import workloads

    run_times, outcomes, digests = [], [], []
    with spans.patched(targets):
        while not run_times or sum(run_times) < args.seconds:
            workload.prepare_pass()
            with recorder.span("bench.run"):
                started = time.perf_counter()
                workload.run_pass()
                run_times.append(time.perf_counter() - started)
            outcomes.append(workload.finish_pass())
            digests.append(sha256_file(workload.csv_path))
    run_rss = peak_rss_mib()

    expected = pinned_digests()["metrics_csv"].get(args.workload, {}).get(str(args.seed))
    failures = []
    for outcome, digest in zip(outcomes, digests):
        problems = list(outcome.problems)
        if expected is not None and digest != expected:
            problems.append(f"{workload.csv_path.name} digest {digest} != pinned {expected}")
        for final in outcome.runs:
            problems += workloads.check_final_states(final)
        failures.append(problems)

    record = {
        "context": run_context(args),
        "setup_samples_s": setup_samples,
        "run_times_s": run_times,
        "digests": digests,
        "pinned_digest": expected,
        "problems": [p for problems in failures for p in problems],
        "attempted": len(outcomes),
        "failed": sum(1 for problems in failures if problems),
    }
    run_s = statistics.median(run_times)
    if args.trace:
        index = spans.SpanIndex(recorder.spans)
        metrics = spans.layer_metrics(
            index, len(run_times), split_in_setup=args.workload != "synthetic_sweep"
        )
        metrics["data.peak_rss_mib"] = setup_rss
        metrics["trace.run_s"] = run_s
        record["workload_specific"] = spans.workload_specific(index, len(run_times))
        record["self_time_s"] = self_time_by_name(index, len(run_times))
        record["trace_overhead_estimate_s"] = spans.overhead_estimate_s(index, len(run_times))
        write_json(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", {
            "fields": ["name", "start", "end", "parent", "info"],
            "spans": recorder.spans,
        })
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "peak_rss_mib": run_rss,
        }
        units = END_TO_END_UNITS
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    write_json(
        WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record
    )
    return record


def self_time_by_name(index: spans.SpanIndex, passes: int) -> dict[str, float]:
    """Self seconds per pass for each span name in the passes, largest first.

    The values add up to the mean traced pass: every second of a pass is in
    exactly one span's self time, the pass's own span included.
    """
    totals: dict[str, float] = {}
    for i in index.under("bench.run") + index.named("bench.run"):
        name = index.spans[i][spans.NAME]
        totals[name] = totals.get(name, 0.0) + index.self_time[i] / passes
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def print_record(record: dict) -> None:
    for name, metric in record["metrics"].items():
        print(f"{name:<32} {metric['value']:.6g} {metric['unit']}")
    for name, value in record.get("workload_specific", {}).items():
        print(f"{name:<32} {value:.6g} {WORKLOAD_SPECIFIC_UNITS[name]}")
    print(f"{'failed_share':<32} {record['failed'] / record['attempted']:.6g} share")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    print("context: " + json.dumps(record["context"], sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def run_all(args) -> int:
    """Every workload, untraced then traced, as child processes; one summary."""
    ok = True
    for workload in WORKLOADS:
        records = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, capture_output=True, text=True)
            if child.returncode != 0:
                print(f"{workload} trace={trace}: exit {child.returncode}\n{child.stderr}")
                ok = False
                continue
            records[trace] = json.loads(
                (WORK / "results" / f"{workload}-seed{args.seed}-trace{trace}.json").read_text()
            )
        if len(records) < 2:
            continue
        plain, traced = records[0], records[1]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        same_digest = set(plain["digests"]) == set(traced["digests"])
        run_s = plain["metrics"]["run_s"]["value"]
        traced_run_s = traced["metrics"]["trace.run_s"]["value"]
        print(f"== {workload} (seed {args.seed})")
        for name, metric in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {name:<32} {metric['value']:12.6g} {metric['unit']}")
        for name, value in traced["workload_specific"].items():
            print(f"  {name:<32} {value:12.6g} {WORKLOAD_SPECIFIC_UNITS[name]}")
        print(f"  {'failed_share':<32} {failed / attempted:12.6g} share")
        print(f"  {'trace.overhead_share':<32} {traced_run_s / run_s - 1:12.6g} share")
        estimate = traced["trace_overhead_estimate_s"]
        print(f"  {'trace.overhead_estimate_s':<32} {estimate:12.6g} s (spans x wrapper cost)")
        print("  traced run_s by span self time:")
        for name, seconds in traced["self_time_s"].items():
            print(f"    {name:<30} {seconds:12.6g} s {seconds / traced_run_s:8.1%}")
        print(f"  digests traced == untraced: {same_digest} ({plain['digests'][0][:16]}...)")
        for problem in plain["problems"] + traced["problems"]:
            print(f"  FAILED: {problem}")
        ok = ok and failed == 0 and same_digest
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument("--seconds", type=float, default=8.0, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-corpus", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.all or args.workload or args.write_corpus):
        parser.error("give --workload NAME or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.write_corpus:
            write_corpus(args.write_corpus)
            return 0
        if args.all:
            prepare_environment()
            return run_all(args)
        if args.setup_probe:
            prepare_environment()
            corpus = WORK / "corpus" if args.workload != "synthetic_sweep" else None
            print(timed_setup(args, corpus, spans.Recorder(), traced=False)[2])
            return 0
        record = measure(args)
    except (BenchmarkError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
