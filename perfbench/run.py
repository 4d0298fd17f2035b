#!/usr/bin/env python3
"""The coflow-forge benchmark: one process per workload, closed loop.

    python3 perfbench/run.py --workload sparse-500|dense-sweep|certify-2000|all
                             [--seed N] [--seconds S] [--trace 0|1] [--record]

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
runs every op once untraced and once as a traced replay and reports the
per-layer metrics. `--record` (with `--trace 1`) stores the run's output
digests for its seed in digests.json. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
benchmark imports coflow_forge from the `src` directory next to this one.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("sparse-500", "dense-sweep", "certify-2000")
DEFAULT_SECONDS = 30
# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
# Set-up is measured this many times per run and reported as the median.
SETUPS = 3
IMPORT_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import coflow_forge.cli
print(time.perf_counter() - start)
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed the inputs are made from; default: "
                             "the workload's own")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests (needs "
                             "--trace 1)")
    args = parser.parse_args(argv)
    if args.record and not args.trace:
        parser.error("--record needs --trace 1")
    return args


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>16.6g} {unit:<8} {note}")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _import_library() -> None:
    """Import coflow_forge from SRC, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("coflow_forge")
    if Path(package.__file__).resolve().parent != SRC / "coflow_forge":
        raise ImportError(f"coflow_forge imported from {package.__file__}")


def _import_seconds(speed) -> tuple[float, float]:
    """Median time to import coflow_forge (every module the CLI loads) in
    fresh interpreters, as measured and at nominal speed."""
    times = []
    for _ in range(SETUPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
    median = statistics.median(times)
    return median, median * speed.scaled(sum(times)) / sum(times)


def _measured(harness, workload, seed: int, seconds: float, work) -> dict:
    digests = harness.load_digests().get(workload.name, {}).get(str(seed), {})
    speed = harness.Speed()
    import_raw, import_s = _import_seconds(speed)
    run = harness.run_measured(workload, seed, seconds, work, digests,
                               setups=SETUPS, speed=speed)
    samples, scaled = run["samples"], run["scaled"]
    attempted, failed = len(samples), len(run["failures"])
    setup_s = import_s + statistics.median(run["setup_scaled"])
    setup_raw = import_raw + statistics.median(run["setup_times"])
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "flows_per_s": _metric(run["flows"] / sum(scaled), "flows/s"),
        "op_p50_ms": _metric(statistics.median(scaled) * 1000.0, "ms"),
        "peak_rss_mb": _metric(run["rss_mb"], "MB"),
    }
    as_measured = {"flows_per_s": run["flows"] / run["elapsed"],
                   "op_p50_ms": statistics.median(samples) * 1000.0}
    print(f"workload {workload.name} seed {seed} ({len(digests)} recorded "
          f"digests): {attempted} ops in {run['rounds']} rounds, "
          f"{run['elapsed']:.3f} s of op time")
    _line("setup_s", setup_s, "s",
          f"(median of {SETUPS} imports + median of {SETUPS} builds, at "
          f"nominal speed; {setup_raw:.6g} as measured)")
    for name in as_measured:
        _line(name, metrics[name]["value"], metrics[name]["unit"],
              f"(n={attempted} ops; {as_measured[name]:.6g} as measured)")
    if attempted >= 10 * TAIL_SAMPLES:
        p90 = statistics.quantiles(scaled, n=10)[8] * 1000.0
        _line("op_p90_ms", p90, "ms", f"(n={attempted})")
    _line("peak_rss_mb", run["rss_mb"], "MB",
          "(ru_maxrss after one pass over every op)")
    if run["ratios"]:
        _line("mean_ratio", statistics.fmean(run["ratios"].values()), "1",
              f"(n={len(run['ratios'])} distinct evaluate ops)")
    _line("failed_frac", failed / attempted, "1", f"(n={attempted})")
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _traced(harness, workload, seed: int, work, record: bool) -> dict:
    digests = {} if record else (
        harness.load_digests().get(workload.name, {}).get(str(seed), {}))
    run = harness.run_traced(workload, seed, work, digests)
    attempted, failed = run["ops"], len(run["failures"])
    spans = harness.spans_path(workload.name, seed)
    run["tracer"].write(spans)
    print(f"workload {workload.name} seed {seed} ({len(digests)} recorded "
          f"digests): {attempted} ops replayed, {len(run['tracer'].spans)} "
          f"spans in {spans.name}")
    metrics = {}
    for name in harness.LAYER_CALLS:
        metrics[name + ".s"] = _metric(run["layer"][name], "s")
        metrics[name + ".calls"] = _metric(run["calls"][name], "count")
        if run["calls"][name]:
            _line(name + ".s", run["layer"][name], "s",
                  f"(calls={run['calls'][name]})")
    for name, unit in harness.LAYER_COUNTS:
        metrics[name] = _metric(run["counts"][name], unit)
        _line(name, run["counts"][name], unit)
    if run["ratios"]:
        _line("mean_ratio (replay)", statistics.fmean(run["ratios"].values()),
              "1", f"(n={len(run['ratios'])})")
    if workload.name == "sparse-500" and seed == workload.default_seed:
        print("  FDLS op layer times against the ROADMAP Baseline row:")
        fdls = {}
        for name, start, end, op in run["tracer"].spans:
            if op == "fdls":
                fdls[name] = fdls.get(name, 0.0) + end - start
        for name, baseline in harness.ROADMAP_FDLS_BASELINE:
            seconds = fdls.get(name, 0.0)
            _line(name, seconds, "s",
                  f"(baseline {baseline} s, x{seconds / baseline:.2f})")
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    if record and not failed:
        all_digests = harness.load_digests()
        all_digests.setdefault(workload.name, {})[str(seed)] = dict(
            sorted(run["digests"].items()))
        with open(harness.DIGESTS_PATH, "w") as fh:
            json.dump(all_digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  recorded {len(run['digests'])} digests for seed {seed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "coflow_forge" / "__init__.py").is_file():
        print(f"perfbench: no coflow_forge package under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    try:
        _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import coflow_forge: {exc}", file=sys.stderr)
        return 2
    import harness

    workload = harness.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work = harness.work_dir(workload.name)
    try:
        if args.trace:
            result = _traced(harness, workload, seed, work, args.record)
        else:
            result = _measured(harness, workload, seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
