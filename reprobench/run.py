#!/usr/bin/env python3
"""Reproduction benchmark: failure-log-to-script latency, one workload per run.

Builds the driver (reprobench/CMakeLists.txt: the repository's src/ libraries
plus the driver) on first use, runs one workload from the root of the
checkout, and prints the driver's result as the last line of standard output:

    python3 reprobench/run.py --workload registry-serial --seed 0 --seconds 10 --trace 0

Workloads: registry-serial, storm-rep4, serve-sliced (see NOTES.md). With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones. The build tree and the service's state directories live in
$CARGO_TARGET_DIR (default .bench_build) under the checkout.
"""

import argparse
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("registry-serial", "storm-rep4", "serve-sliced")
DEFAULT_SEED = 0  # the registry's own seeds; NOTES.md names the held-out seed
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(source_dir, build_dir):
    """Configures and builds the driver; quick when it is up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "reprobench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "reprobench")


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the driver printed no result")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive whole number")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s has no finite value" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(os.path.dirname(source_dir), out_dir)
    try:
        binary = build(source_dir, os.path.join(out_dir, "reprobench"))
    except (subprocess.CalledProcessError, OSError) as error:
        print("reprobench: build failed: %s" % error, file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(out_dir, "reprobench-work")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("reprobench: the driver ran past %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("reprobench: the driver exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        result = parse_result(proc.stdout)
    except ValueError as error:
        print("reprobench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
