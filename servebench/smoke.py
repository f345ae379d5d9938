#!/usr/bin/env python3
"""Smoke test of the serving benchmark: a short run of every workload.

Run from the repository root:

    python3 servebench/smoke.py [--seconds 3]

For each workload in BENCHMARK.json it runs servebench/run.py untraced and
traced, and checks that the run exits 0, that the JSON line carries exactly
the metrics BENCHMARK.json lists for the mode, that nothing failed (ERR
replies, transport errors and oracle mismatches all count), and that the
report names every end-to-end metric of the workload with its unit.
Exits non-zero on the first violation.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every end-to-end metric each workload reports (BENCHMARK.json gates the
# subset all three share; the rest are printed).
COMMON = ["setup_s", "rss_mb", "error_rate", "observe_p50_us", "observe_p99_us",
          "hello_p50_us", "hello_p99_us", "goodput_rps", "capacity_rps",
          "pred_err_p50"]
REPORTED = {
    "stream-steady": COMMON,
    "session-churn": COMMON,
    "mpc-pilot": COMMON + ["decision_p50_us", "decision_p99_us", "chunks_per_s",
                           "qoe_mean"],
}


def check(condition, message):
    if not condition:
        print(f"smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, seconds, trace, spec):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    where = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{where} exited {done.returncode}\n{done.stdout}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0,
          f"{where}: {result['failed']} of {result['attempted']} failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == wanted, f"{where}: metrics {sorted(got)} != {sorted(wanted)}")
    report = "\n".join(lines[:-1])
    check(re.search(r"^metric error_rate +0 ratio", report, re.M),
          f"{where}: error_rate is not 0")
    if not trace:
        for name in REPORTED[workload]:
            check(re.search(rf"^metric {re.escape(name)} +\S+ \S+", report, re.M),
                  f"{where}: report lacks {name}")
    print(f"smoke: ok {where}: {result['attempted']} requests")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run(workload["name"], args.seconds, trace, spec)


if __name__ == "__main__":
    main()
