#!/usr/bin/env bash
# End-to-end correctness gate: "clean under check_all" is this repo's
# definition of green. Runs, in order:
#
#   1. copyattack-analyze: the repo-invariant line rules and the
#      semantic passes (fast fail before any long build; JSON report →
#      build/reports/)
#   2. release preset  — -Werror wall, unit + lint suites, then the smoke
#                        runs (telemetry, recipes and their exact
#                        regeneration gates, chaos soak, and the perfbench
#                        benchmark smoke test)
#   3. asan-ubsan preset — full build, unit + lint suites under ASan/UBSan
#   4. tsan preset     — full build, unit suite AND the `stress` label
#                        (the stress suite runs ONLY here: TSan is the
#                        tool those tests are written for, and they cost
#                        the most wall clock under it)
#
# Usage: tools/check_all.sh [--quick]
#   --quick  skip the sanitizer presets (release + lint only)
#
# Environment: COPYATTACK_TEST_SEED=<n> reseeds every stochastic test so
# sanitizer sweeps can fuzz seed-dependent paths (see tests/test_seed.h).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 2)"
quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: $0 [--quick]" >&2
  exit 2
fi

step() { printf '\n== check_all: %s ==\n' "$*"; }

run_preset() {
  local preset="$1"
  local ctest_args=("${@:2}")
  step "configure+build [${preset}]"
  cmake --preset "${preset}" >/dev/null
  cmake --build --preset "${preset}" --parallel "${jobs}"
  step "test [${preset}] ${ctest_args[*]}"
  ctest --preset "${preset}" -j "${jobs}" "${ctest_args[@]}"
}

# 1. Static analysis first: build just the analyzer in the release tree
# and run it on the tree so contract violations fail in seconds, not
# after three builds. It also archives a machine-readable report under
# build/reports/ for CI artifact upload.
step "analyze"
cmake --preset release >/dev/null
cmake --build --preset release --parallel "${jobs}" \
  --target copyattack-analyze
mkdir -p build/reports
./build/tools/analyze/copyattack-analyze --root=. --format=json \
  > build/reports/analyze_report.json \
  || { cat build/reports/analyze_report.json >&2; exit 1; }
# Analyzer latency budget: the whole point of running it first is that it
# fails in seconds. The per-pass timings_ms block in the JSON report keeps
# that honest — if the summed pass time crosses the budget, a pass has
# regressed (e.g. the call-graph resolver went quadratic) and the gate
# fails before anyone learns to tolerate a slow linter.
analyze_budget_ms=20000
python3 - "${analyze_budget_ms}" <<'PY'
import json, sys
budget = float(sys.argv[1])
report = json.load(open("build/reports/analyze_report.json"))
timings = report["timings_ms"]
total = sum(timings.values())
worst = max(timings, key=timings.get)
print(f"analyze pass timings: {total:.1f} ms total "
      f"(slowest: {worst} at {timings[worst]:.1f} ms)")
if total > budget:
    sys.exit(f"check_all: analyze pass budget exceeded: "
             f"{total:.1f} ms > {budget:.0f} ms")
PY
# SARIF for CI code-scanning upload. Archived unconditionally (the file is
# useful evidence either way); the exit status still gates.
./build/tools/analyze/copyattack-analyze --root=. --format=sarif \
  > build/reports/analyze.sarif \
  || { echo "check_all: analyze (sarif) FAILED" >&2; exit 1; }
# Baseline hard gate: fresh findings fail, and so do stale baseline.json
# entries the analyzer no longer emits (burn-down hygiene — delete the
# entry with the fix). Grandfathered findings are tracked, not fatal.
./build/tools/analyze/copyattack-analyze --root=. \
  --baseline=tools/analyze/baseline.json
echo "analyze reports archived at build/reports/analyze_report.json and build/reports/analyze.sarif"

# 2. Release wall: everything except the stress label (stress is TSan's
# job; see below).
run_preset release -LE stress

# 2b-2c. Telemetry-export smoke, recipe smoke and the exact recipe
# regeneration gates, shared with CI.
"${repo_root}/tools/release_smokes.sh"

# 2d. Process-level chaos soak (ISSUE 10): fork attack-server runs, kill
# them at seeded random crash points (checkpoint rotation phases, shard
# boundaries, job transitions), resume each time, and require the final
# outcomes bit-identical to an uninterrupted run. The tsan variant reruns
# the same protocol under the race detector (fewer cycles — TSan is slow).
chaos_soak() {
  local preset="$1" cycles="$2"
  step "chaos soak [${preset}] (${cycles} kill/resume cycles)"
  local bin="build/tools/soak_runner"
  case "${preset}" in
    asan-ubsan) bin="build-asan/tools/soak_runner" ;;
    tsan) bin="build-tsan/tools/soak_runner" ;;
  esac
  local soak_tmp
  soak_tmp="$(mktemp -d)"
  "${bin}" --cycles="${cycles}" --seed=1337 --dir="${soak_tmp}"
  rm -rf "${soak_tmp}"
  echo "chaos soak [${preset}] OK"
}

chaos_soak release 20

# 2e. Benchmark smoke: every perfbench workload, untraced and traced, on
# the tiny world. perfbench builds its own tree from src/, so this is
# what catches a src/ change that breaks the benchmark build.
step "perfbench smoke"
python3 perfbench/smoke_test.py

if [[ "${quick}" == "1" ]]; then
  step "OK (quick: sanitizer presets skipped)"
  exit 0
fi

# Fault-injection soak (ISSUE 5): a short seeded campaign under the
# aggressive fault schedule, with the resilient client, checkpointing and
# telemetry all on, run against a sanitizer build. Exercises the
# fault/retry/breaker/checkpoint paths end to end where ASan/UBSan/TSan
# can see them; telemetry lands in build/reports/ with the other smoke
# artifacts.
fault_soak() {
  local preset="$1"
  step "fault-injection soak [${preset}]"
  local soak_tmp
  soak_tmp="$(mktemp -d)"
  ./build/tools/copyattack generate --config tiny \
    --out "${soak_tmp}/world" >/dev/null
  local bin="build/tools/copyattack"
  case "${preset}" in
    asan-ubsan) bin="build-asan/tools/copyattack" ;;
    tsan) bin="build-tsan/tools/copyattack" ;;
  esac
  "${bin}" attack --data "${soak_tmp}/world" \
    --method=CopyAttack --targets=2 --episodes=4 --budget=6 \
    --faults=aggressive --fault_seed=1337 \
    --checkpoint_dir="${soak_tmp}/ckpt" \
    --telemetry_out="${soak_tmp}/telemetry" >/dev/null
  # Resume from the checkpoint it just wrote — the load/validate path must
  # also be sanitizer-clean, and must actually resume: a checkpoint-layout
  # or fingerprint mismatch would silently replay from scratch.
  local resume_out
  resume_out="$("${bin}" attack --data "${soak_tmp}/world" \
    --method=CopyAttack --targets=2 --episodes=4 --budget=6 \
    --faults=aggressive --fault_seed=1337 \
    --checkpoint_dir="${soak_tmp}/ckpt" --resume=1)"
  if ! grep -q "resumed from" <<<"${resume_out}"; then
    echo "fault soak [${preset}]: --resume=1 did not resume" >&2
    echo "${resume_out}" >&2
    exit 1
  fi
  mkdir -p "build/reports/fault_soak_${preset}"
  cp "${soak_tmp}/telemetry/"{metrics.csv,summary.json,trace.json} \
    "build/reports/fault_soak_${preset}/"
  rm -rf "${soak_tmp}"
  echo "fault soak [${preset}] OK (telemetry at build/reports/fault_soak_${preset}/)"
}

# 3. ASan+UBSan: memory errors and UB across the unit + lint suites.
run_preset asan-ubsan -LE stress
fault_soak asan-ubsan

# Sharded-runner soak (ISSUE 6): drive the attack-server through the TSan
# binary with more shards than worker threads, checkpointing on, then run
# the same queue again with --resume so the per-shard checkpoint
# load/merge path is also exercised under the race detector.
parallel_soak() {
  step "sharded-runner soak [tsan]"
  local soak_tmp
  soak_tmp="$(mktemp -d)"
  local bin="build-tsan/tools/copyattack"
  "${bin}" generate --config tiny --out "${soak_tmp}/world" >/dev/null
  cat > "${soak_tmp}/jobs.csv" <<'CSV'
id,method,targets,budget,episodes,seed
soak-copy,CopyAttack,3,6,3,1337
soak-baseline,TargetAttack40,3,6,1,1337
CSV
  "${bin}" attack-server --data "${soak_tmp}/world" \
    --queue "${soak_tmp}/jobs.csv" --jobs=4 \
    --checkpoint_root="${soak_tmp}/ckpt" >/dev/null
  "${bin}" attack-server --data "${soak_tmp}/world" \
    --queue "${soak_tmp}/jobs.csv" --jobs=4 \
    --checkpoint_root="${soak_tmp}/ckpt" --resume=1 >/dev/null
  rm -rf "${soak_tmp}"
  echo "sharded-runner soak [tsan] OK"
}

# 4. TSan: unit suite for coverage, then the concurrency stress suite —
# the only preset that runs the `stress` label.
run_preset tsan -LE stress
fault_soak tsan
parallel_soak
chaos_soak tsan 20
step "test [tsan] stress label"
ctest --preset tsan-stress -j "${jobs}"

step "OK (analyze + release + asan-ubsan + tsan all green)"
