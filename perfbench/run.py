#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload copyattack-large --seed 1 \
        --seconds 10 --trace 0

The driver is configured and built with CMake into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set); an up-to-date build is a
no-op. Its result object is the last line printed. Build or run failures
exit non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("copyattack-large", "baseline-sweep-large", "zoo-server-large")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            return None
    return os.path.join(out, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world", choices=("large", "tiny"), default="large",
                        help="tiny: the smoke mode of smoke_test.py")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="directory for inputs, checkpoints and results")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--world", args.world, "--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print("perfbench: driver exited with %d" % done.returncode,
              file=sys.stderr)
        return done.returncode or 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(done.stdout)
        print("perfbench: driver printed no result object", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
