#!/usr/bin/env python3
"""qbpart benchmark: build the driver, run one workload, print its metrics.

    python3 perfbench/run.py --workload tables|vcycle|threads|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the qbpart libraries plus perfbench_driver) in
Release mode under $CARGO_TARGET_DIR (default .bench_build); later runs
only rebuild what changed.  The driver's raw document and span file land in
the same directory.

--seconds defaults to BENCHMARK.json's run_seconds.  On serve,
--eco-every, --window and --primed change the traffic mix from the
driver's defaults (assumptions; see catalogue.json) for sensitivity runs.

stdout ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The lines before it are a human-readable summary.  Any
failed check makes the run exit 1 after printing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("tables", "vcycle", "threads", "serve")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (first time) and build perfbench_driver; return its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench_driver")


def default_seed():
    with open(os.path.join(HERE, "catalogue.json")) as handle:
        return json.load(handle)["default_seed"]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_spans(path):
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=default_seed())
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for flag in ("--eco-every", "--window", "--primed"):
        parser.add_argument(flag, type=int)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("qbpart sources not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    driver = build(build_dir)

    stem = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    raw_path, spans_path = stem + ".json", stem + ".spans.jsonl"
    for path in (raw_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", raw_path]
    if args.trace:
        command += ["--spans", spans_path]
    for flag, value in (("--eco-every", args.eco_every),
                        ("--window", args.window), ("--primed", args.primed)):
        if value is not None:
            command += [flag, str(value)]
    try:
        done = subprocess.run(command, stdout=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if done.returncode != 0:
        fail("driver exited with %d" % done.returncode)
    with open(raw_path) as handle:
        raw = json.load(handle)

    declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = metrics.per_layer(raw, load_spans(spans_path))
    else:
        values = metrics.end_to_end(raw)
    names = [entry["name"] for entry in declared]
    if sorted(values) != sorted(names):
        fail("computed metrics %s differ from BENCHMARK.json %s"
             % (sorted(values), sorted(names)))

    extra = metrics.extras(raw)
    attempted, failed = extra["attempted"], extra["failed"]
    correct = attempted >= 1 and failed == 0
    print("workload %s, seed %d, %s run" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    if "mix" in raw:
        print("  mix: ECO variant every %(eco_every)d resubmits, window "
              "%(window)d, %(primed)d primed designs" % raw["mix"])
    for entry in declared:
        print("  %-32s %16.6g %s" % (entry["name"], values[entry["name"]],
                                      entry["unit"]))
    if not args.trace:
        print("  %-32s %16.6g jobs/s" % ("jobs_per_s", extra["jobs_per_s"]))
        for name in ("p50_ms", "p99_ms", "cold_p50_ms"):
            quantile = extra[name]
            print("  %-32s %16.6g ms (%d samples, %d beyond)" % (
                name, quantile["value"], quantile["samples"],
                quantile["beyond"]))
        print("  %-32s %16.6g x" % ("parallel_speedup",
                                     extra["parallel_speedup"]))
    print("  %-32s %16.6g (%d failed of %d attempted)" % (
        "fail_share", extra["fail_share"], failed, attempted))
    for note in raw["outcomes"].get("notes", []):
        print("  failure: " + note)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": values[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in declared},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
