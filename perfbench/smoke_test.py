#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, on the
Tiny world. Checks the result object's shape, that every metric named in
BENCHMARK.json is reported with its unit, and that the traced run
reproduces the untraced outcome. Takes well under a minute after the build.

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, out):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--world", "tiny", "--out", out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s trace=%d exited %d" %
                             (workload, trace, done.returncode))
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (label, set(metrics) ^ set(expected))
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (label, name)
        assert isinstance(metrics[name]["value"], (int, float)), (label, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_smoke-") as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            plain = run(workload, 0, out)
            check_result(plain, end_to_end, workload + " untraced")
            traced = run(workload, 1, out)
            check_result(traced, per_layer, workload + " traced")
            ledger_path = os.path.join(out, workload + "-seed5-ledger.json")
            with open(ledger_path) as f:
                ledger = json.load(f)
            for name in ("hr20", "oracle_queries_per_target"):
                assert ledger[name] == plain["metrics"][name]["value"], \
                    (workload, name)
            print("ok", workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
