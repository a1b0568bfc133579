#!/usr/bin/env python3
"""End-to-end KMC benchmark: builds tkmc_e2e, runs the workload decks,
checks their results and prints every metric as `workload metric value
unit` lines.

One workload (the last stdout line is one JSON result object):
  python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
Every workload (e2e and layer metrics, one JSON file):
  python3 bench/e2e/run.py [--build-dir DIR] [--seed N] [--trace 0|1|DIR]
                           [--quick] [--sets N]

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
(or a directory) reports the per-layer metrics of a traced run and
writes its Chrome trace. --quick runs every workload at 1/20 length with
one rep per kind and asserts that every metric in BENCHMARK.json is
printed. --sets N repeats the whole run N times and reports, per
end-to-end metric and workload, the spread between set medians against
the metric's bound.

The benchmark builds in --build-dir (default $CARGO_TARGET_DIR, else
.bench_build) and keeps its run files and traces there. It exits
non-zero when a correctness check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 2021

# Goldens of trajectory 0 at DEFAULT_SEED and full length: (events per
# rep, final hash). The NNP workloads are checked against reference
# energy models instead.
WORKLOADS = {
    "serial_nnp": None,
    "parallel_nnp_sunway": None,
    "shim_amar_cycle": (853, "c245fe3c"),
    "checkpoint_delta": (853, "c245fe3c"),
}
# checkpoint_delta runs shim_amar_cycle's physics, seed and length.
SAME_TRAJECTORY = ("shim_amar_cycle", "checkpoint_delta")

# Reported for reading, not listed in BENCHMARK.json: timings of layers
# that only some workloads exercise.
EXTRA_UNITS = {
    "events_per_s.raw": "events/s",
    "host.probe_us": "us",
    "sunway.modeled_us_per_state": "us",
    "checkpoint.commit_cycle_ms.p50": "ms",
    "checkpoint.plain_cycle_ms.p50": "ms",
    "checkpoint.commit_cost_ms": "ms",
    "checkpoint.resume_ms": "ms",
    "remote.drain_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def build(build_dir):
    """Configures (once) and builds tkmc_e2e; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no TensorKMC sources under {ROOT}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "tkmc_e2e",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return build_dir / "tkmc_e2e"


def run_workload(binary, build_dir, name, seed, seconds, trace_path, quick):
    """Runs one workload process; returns its parsed result object."""
    cmd = [str(binary), "--deck", str(HERE / "decks" / f"{name}.tkmc"),
           "--workdir", str(build_dir / "run" / name), "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 150)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name}: tkmc_e2e exited {proc.returncode} "
                           f"without a result")
    return json.loads(lines[-1])


def evaluate(result, names, units, seed, quick, trace_path):
    """Metrics named in `names` plus the extras, and the checks run here.

    Returns (metrics, attempted, failed, failures); metrics maps a name to
    (median, unit, q1, q3, samples)."""
    failures = []
    measured = dict(result["e2e"] if trace_path is None else result["layer"])
    metrics = {}
    for name in names:
        sample = measured.get(name)
        if sample is None or not math.isfinite(sample[0]):
            failures.append(f"metric {name} not measured")
            continue
        metrics[name] = (sample[0], units[name], *sample[1:])
    for name, unit in EXTRA_UNITS.items():
        if name in measured and name not in metrics:
            metrics[name] = (measured[name][0], unit, *measured[name][1:])
    checks = len(names)

    golden = WORKLOADS[result["workload"]]
    if golden is not None and seed == DEFAULT_SEED and not quick:
        checks += 1
        if (result["events"], result["hash"]) != golden:
            failures.append(
                f"golden: {result['events']} events, hash {result['hash']}; "
                f"expected {golden[0]} events, hash {golden[1]}")
    if trace_path is not None:
        checks += 1
        spans = ["rep", "energy.call"]
        if result["parallel"]:
            spans.append("ghost.replay")
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "validate_trace.py"),
             str(trace_path)]
            + [arg for span in spans for arg in ("--require-span", span)],
            stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            failures.append(f"trace {trace_path} failed validation")
    for msg in failures:
        log(f"{result['workload']}: check failed: {msg}")
    attempted = result["iterations"] + result["checks"] + checks
    failed = result["failures"] + result["rollbacks"] + len(failures)
    return metrics, attempted, failed, failures


def print_metrics(workload, metrics):
    for name, (value, unit, q1, q3, n) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}"
              f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={n})")


def metric_specs(bench, traced):
    specs = bench["per_layer" if traced else "end_to_end"]
    return [m["name"] for m in specs], {m["name"]: m["unit"] for m in specs}


def run_one(args, bench, binary, build_dir, name, traced, trace_dir):
    trace_path = trace_dir / f"{name}.trace.json" if traced else None
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    result = run_workload(binary, build_dir, name, args.seed, args.seconds,
                          trace_path, args.quick)
    names, units = metric_specs(bench, traced)
    return result, evaluate(result, names, units, args.seed, args.quick,
                            trace_path)


def single_mode(args, bench, binary, build_dir, trace_dir):
    """One workload; the last stdout line is the JSON result object."""
    result, (metrics, attempted, failed, _) = run_one(
        args, bench, binary, build_dir, args.workload, args.traced, trace_dir)
    print_metrics(args.workload, metrics)
    names, _ = metric_specs(bench, args.traced)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }))
    return 0 if failed == 0 else 1


def report_sets(bench, sets):
    """Spread between set medians of every e2e metric against its bound."""
    print("\nset-to-set spread (max-min over mean of set medians):")
    for workload in WORKLOADS:
        probes = [s[workload]["e2e"]["host.probe_us"][0] for s in sets]
        print(f"{workload} host.probe_us per set: "
              + ", ".join(f"{p:.4g}" for p in probes))
        for spec in bench["end_to_end"]:
            values = [s[workload]["e2e"][spec["name"]][0] for s in sets]
            spread = (max(values) - min(values)) / statistics.mean(values)
            verdict = "ok" if spread <= spec["bound"] else "unresolved"
            print(f"{workload} {spec['name']} spread {spread:.4f} "
                  f"bound {spec['bound']} {verdict}")


def full_mode(args, bench, binary, build_dir, trace_dir):
    """Every workload, untraced (e2e) and traced (layers), --sets times."""
    sets, failed_total = [], 0
    for set_index in range(args.sets):
        results = {}
        for name in WORKLOADS:
            results[name] = {}
            for traced in ([False, True] if args.traced else [False]):
                result, (metrics, _, failed, failures) = run_one(
                    args, bench, binary, build_dir, name, traced, trace_dir)
                print_metrics(name, metrics)
                failed_total += failed
                results[name]["layer" if traced else "e2e"] = metrics
                results[name].update(
                    hash=result["hash"], events=result["events"],
                    failures=results[name].get("failures", []) + failures)
        a, b = (results[n] for n in SAME_TRAJECTORY)
        if (a["hash"], a["events"]) != (b["hash"], b["events"]):
            failed_total += 1
            log(f"check failed: {SAME_TRAJECTORY[0]} ended at {a['hash']} "
                f"({a['events']} events) but {SAME_TRAJECTORY[1]} at "
                f"{b['hash']} ({b['events']} events)")
        if set_index > 0 and any(
                (results[n]["hash"], results[n]["events"])
                != (sets[0][n]["hash"], sets[0][n]["events"])
                for n in WORKLOADS):
            failed_total += 1
            log("check failed: sets disagree on a final hash or event count")
        sets.append(results)
    if len(sets) > 1:
        report_sets(bench, sets)
    out = build_dir / "e2e_results.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "quick": args.quick, "sets": sets}, fh,
                  indent=1)
    print(f"\nwrote {out}; {failed_total} failed check(s)")
    return 0 if failed_total == 0 else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", default=None,
                        help="0, 1, or a directory for the traces")
    parser.add_argument("--build-dir",
                        default=os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    parser.add_argument("--binary", help="use this tkmc_e2e; skip the build")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    try:
        bench = load_benchmark()
        build_dir = Path(args.build_dir)
        if not build_dir.is_absolute():
            build_dir = ROOT / build_dir
        if args.seconds is None:
            args.seconds = 0 if args.quick else bench["run_seconds"]
        trace_dir = build_dir / "trace"
        if args.trace not in (None, "0", "1"):
            trace_dir = Path(args.trace).resolve()
        # One workload defaults to untraced; the full report to traced.
        args.traced = (args.trace != "0") if args.workload is None \
            else (args.trace not in (None, "0"))
        binary = Path(args.binary) if args.binary else build(build_dir)
        if args.workload is not None:
            return single_mode(args, bench, binary, build_dir, trace_dir)
        return full_mode(args, bench, binary, build_dir, trace_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"run.py: error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
