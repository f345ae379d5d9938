#!/usr/bin/env python3
"""Builds and runs the CS2P end-to-end serving benchmark.

Run from the repository root:

    python3 servebench/run.py --workload stream-steady --seed 1 --seconds 15 --trace 0

Workloads: stream-steady, session-churn, mpc-pilot (see servebench/METRICS.md).

The first call configures and builds servebench/ (which compiles the cs2p
libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild incrementally. The benchmark's report goes to
stdout, followed by one JSON line holding exactly the metrics BENCHMARK.json
lists for the mode: end_to_end with --trace 0, per_layer with --trace 1.
The traced run also writes its spans to <build dir>/spans-<workload>-<seed>.jsonl.

Exit status: 0 when every output was correct, 1 when the oracle found wrong
outputs (the JSON line is still printed), 2 when the benchmark could not be
built or run (nothing is printed on stdout).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark; returns its path."""
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "servebench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as read_back:
                    sys.stderr.write("".join(read_back.readlines()[-40:]))
                fail(f"build failed ({' '.join(step[:2])}), log in {log_path}")
    return os.path.join(out_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"servebench exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("servebench printed no JSON result")

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        measured = result["metrics"].get(name)
        if measured is None or measured["value"] is None:
            sys.stderr.write(done.stdout)
            fail(f"metric {name} was not measured")
        if measured["unit"] != entry["unit"]:
            fail(f"metric {name} has unit {measured['unit']}, not {entry['unit']}")
        metrics[name] = measured

    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
