#!/usr/bin/env bash
# The release build's end-to-end smokes, run by tools/check_all.sh after
# the release suite and by CI after its Test step:
#
#   2b. telemetry export through the real CLI; its JSON files must parse
#   2c. the tiny arms-race frontier schema check, then seven deterministic
#       recipes regenerated and compared exactly (--tol=0) with their
#       committed CSVs; target_models, reward_shaping and the default
#       (small) arms_race_frontier are the only full-campaign runs of
#       ItemKNN, the adaptive detector, the surrogate zoo and the
#       GRU/raw-HR CopyAttack variants
#   2d. every program under examples/ runs to exit 0; the CSV that
#       promotion_campaign writes and the stdout of quickstart and
#       budget_planner match their committed samples byte for byte
#
# Usage: tools/release_smokes.sh   (needs build/ from the release preset)
# Reports land under build/reports/.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

step() { printf '\n== check_all: %s ==\n' "$*"; }

# 2b. Telemetry-export smoke: a tiny end-to-end attack with
# --telemetry_out must produce non-empty metrics.csv, summary.json and
# trace.json (the Chrome-trace file), and both JSON files must parse.
# Exercises the whole obs subsystem — registry, spans, exporters — through
# the real CLI.
step "telemetry export smoke"
telemetry_tmp="$(mktemp -d)"
trap 'rm -rf "${telemetry_tmp}"' EXIT
./build/tools/copyattack generate --config tiny \
  --out "${telemetry_tmp}/world" >/dev/null
./build/tools/copyattack attack --data "${telemetry_tmp}/world" \
  --method=TargetAttack40 --targets=2 --budget=6 \
  --telemetry_out="${telemetry_tmp}/telemetry" >/dev/null
for f in metrics.csv summary.json trace.json; do
  if [[ ! -s "${telemetry_tmp}/telemetry/${f}" ]]; then
    echo "check_all: telemetry smoke FAILED: missing or empty ${f}" >&2
    exit 1
  fi
done
for f in summary.json trace.json; do
  if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
      "${telemetry_tmp}/telemetry/${f}"; then
    echo "check_all: telemetry smoke FAILED: ${f} is not valid JSON" >&2
    exit 1
  fi
done
# Archive the smoke artifacts next to the static-analysis report so one
# directory (build/reports/) holds everything CI wants to upload.
mkdir -p build/reports/telemetry_smoke
cp "${telemetry_tmp}/telemetry/"{metrics.csv,summary.json,trace.json} \
  build/reports/telemetry_smoke/
echo "telemetry smoke OK (artifacts archived at build/reports/telemetry_smoke/)"

# 2c. Recipe smoke + regeneration gates: run the tiny strategy-zoo x
# detector-zoo frontier end to end and schema-check its CSV (all 9 cells
# present), then regenerate the deterministic recipes below and require
# each to reproduce its committed CSV exactly (--tol=0), so drift in any
# outcome is caught, not just crashes.
step "recipe smoke + regeneration gates"
bench_tmp="$(mktemp -d)"
recipe() {
  (cd "${bench_tmp}" && "${repo_root}/build/tools/copyattack" recipe "$@" \
    >/dev/null)
}
recipe arms_race_frontier --config=tiny
frontier="${bench_tmp}/bench_results/arms_race_frontier.csv"
if [[ ! -s "${frontier}" ]]; then
  echo "check_all: arms-race smoke FAILED: missing ${frontier}" >&2
  exit 1
fi
expected_header="strategy,detector,hr20,auc,recall_at_5fpr,profiles"
if [[ "$(head -n1 "${frontier}")" != "${expected_header}" ]]; then
  echo "check_all: arms-race smoke FAILED: bad frontier header" >&2
  exit 1
fi
for cell in "CopyAttack,ZScore" "CopyAttack,kNN" "CopyAttack,Adaptive" \
            "SurrogateTransfer,ZScore" "SurrogateTransfer,kNN" \
            "SurrogateTransfer,Adaptive" "Influence,ZScore" \
            "Influence,kNN" "Influence,Adaptive"; do
  if ! grep -q "^${cell}," "${frontier}"; then
    echo "check_all: arms-race smoke FAILED: missing cell ${cell}" >&2
    exit 1
  fi
done
cp "${frontier}" build/reports/arms_race_frontier_tiny.csv
for name in defense_detectability table1_datasets query_budget extensions \
            target_models reward_shaping arms_race_frontier; do
  recipe "${name}"
  ./build/tools/csv_compare "bench_results/${name}.csv" \
    "${bench_tmp}/bench_results/${name}.csv" --tol=0
done
rm -rf "${bench_tmp}"
echo "recipe smoke OK (9/9 frontier cells; 7 recipes reproduce exactly)"

# 2d. Example smoke: the example programs are the library's documented
# entry points (quickstart drives AttackEnvironment directly), so each
# must run to exit 0. They run from a scratch directory because
# promotion_campaign writes its CSV to the working directory. That CSV
# and the stdout of quickstart and budget_planner are deterministic and
# must match examples/promotion_campaign.csv, examples/quickstart.txt and
# examples/budget_planner.txt exactly.
step "examples smoke"
examples_tmp="$(mktemp -d)"
for example in quickstart promotion_campaign profile_realism \
               budget_planner detector_audit; do
  if ! (cd "${examples_tmp}" && \
        "${repo_root}/build/examples/${example}" \
          >"${examples_tmp}/${example}.txt"); then
    echo "check_all: examples smoke FAILED: ${example}" >&2
    exit 1
  fi
done
for sample in promotion_campaign.csv quickstart.txt budget_planner.txt; do
  if ! cmp "${examples_tmp}/${sample}" "examples/${sample}"; then
    echo "check_all: examples smoke FAILED: ${sample} differs from" \
      "examples/${sample}" >&2
    exit 1
  fi
done
rm -rf "${examples_tmp}"
echo "examples smoke OK (5/5 exit 0; 3 samples match)"
