#!/usr/bin/env bash
# Records the model-kernel performance baseline as committed JSON artifacts,
# or (--check) re-runs the benches and diffs the fresh artifacts against
# the committed ones through scripts/bench_regress.py.
#
# Runs the micro-model benchmark (which measures the coverage-index vs
# legacy demotion/rebuild workloads internally and reports both), the
# Figure 12 convergence bench twice — with the coverage index and with
# --no-index — and the path-loss build bench (legacy per-cell kernel vs
# batched serial vs batched parallel at 8 threads), so BENCH_model.json,
# the two convergence summaries and BENCH_pathloss.json together capture
# the before/after picture for the current commit.
#
# The parallel passes pin --threads 8 explicitly: --threads 0 resolves to
# the hardware concurrency, which on a single-core CI box silently turns
# the "parallel" pass into a second serial pass (that is how an earlier
# BENCH_model.json got committed with threads:1 and a 1.0x "speedup").
# Oversubscribing one core with 8 workers still exercises the parallel
# code path and keeps the artifact comparable across machines.
#
# Usage: scripts/bench_baseline.sh [--check] [build-dir] (default: build)
#   (record mode overwrites BENCH_*.json in the repo root; check mode
#    writes to a temp dir and exits nonzero on regression)
set -euo pipefail

cd "$(dirname "$0")/.."

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
fi
BUILD_DIR="${1:-build}"

for bin in bench_micro_model bench_fig12_convergence bench_pathloss_build \
           bench_pathloss_open bench_fault_recovery bench_fleet_campaign; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "error: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

out_dir=.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
if (( check )); then
  out_dir="$scratch/fresh"
  mkdir -p "$out_dir"
  echo "== check mode: fresh artifacts in $out_dir, diffed against ./BENCH_*.json =="
fi

echo "== micro-model kernels (index + legacy + thread scaling, one artifact) =="
"$BUILD_DIR/bench/bench_micro_model" --threads 8 --scaling \
  --benchmark_filter='BM_DemotionRebuild|BM_FullRebuild|BM_UtilityEvaluation' \
  --json "$out_dir/BENCH_model.json"

echo "== fig12 convergence, coverage index =="
"$BUILD_DIR/bench/bench_fig12_convergence" \
  --json "$out_dir/BENCH_fig12_index.json" >/dev/null

echo "== fig12 convergence, legacy scan (--no-index) =="
"$BUILD_DIR/bench/bench_fig12_convergence" --no-index \
  --json "$out_dir/BENCH_fig12_noindex.json" >/dev/null

echo "== path-loss build pipeline (legacy vs batched, 8 threads) =="
"$BUILD_DIR/bench/bench_pathloss_build" --threads 8 \
  --json "$out_dir/BENCH_pathloss.json"

echo "== cold-open streaming (eager load vs mmap open, budget sweep) =="
streaming_db="$scratch/streaming_db"
"$BUILD_DIR/bench/bench_pathloss_open" --threads 8 --db-dir "$streaming_db" \
  --json "$out_dir/BENCH_streaming.json"

echo "== crash-safe campaign execution (journal, resume, quarantine) =="
"$BUILD_DIR/bench/bench_fault_recovery" \
  --json "$out_dir/BENCH_recovery.json" >/dev/null

echo "== fleet campaign (100 markets through the byte-budgeted store) =="
fleet_db="$scratch/fleet_db"
"$BUILD_DIR/bench/bench_fleet_campaign" --db-dir "$fleet_db" \
  --json "$out_dir/BENCH_fleet.json" >/dev/null

if (( check )); then
  python3 scripts/bench_regress.py --check --baseline-dir . \
    --fresh-dir "$out_dir"
  exit $?
fi

echo
echo "Artifacts: BENCH_model.json BENCH_fig12_index.json BENCH_fig12_noindex.json BENCH_pathloss.json BENCH_streaming.json BENCH_recovery.json BENCH_fleet.json"
python3 - <<'PY' 2>/dev/null || true
import json
m = json.load(open('BENCH_model.json'))
print(f"simd backend: {m.get('simd', 'unknown')}")
print(f"parallel pass threads: {m['threads']} "
      f"(speedup vs 1 thread: {m['speedup_vs_1_thread']:.2f}x)")
for key, row in sorted(m.get('scaling', {}).items()):
    print(f"  scaling {key}: {row['evals_per_sec']:.1f} evals/s "
          f"({row['speedup_vs_1_thread']:.2f}x)")
print(f"demotion speedup (index vs legacy): {m['demotion_speedup']:.2f}x")
print(f"rebuild  speedup (index vs legacy): {m['rebuild_speedup']:.2f}x")
print(f"index bytes: {m['index_bytes']}")
p = json.load(open('BENCH_pathloss.json'))
print(f"path-loss build speedup (parallel vs legacy): "
      f"{p['speedup_parallel_vs_legacy']:.2f}x "
      f"(identical: {p['entries_identical'] and p['files_identical']})")
s = json.load(open('BENCH_streaming.json'))
print(f"cold open speedup (mmap open vs eager load): "
      f"{s['speedup_cold_open']:.0f}x (>=5x: {s['cold_open_speedup_ge_5x']}), "
      f"budget sweep identical: {s['plans_identical_across_budgets']}, "
      f"under budget: {s['under_budget']}")
r = json.load(open('BENCH_recovery.json'))
c = r['campaign']
print(f"campaign crash/resume: windows {c['windows_completed']}/"
      f"{c['windows_total']}, resumes {c['resumes']}, "
      f"quarantines {c['quarantine_events']}, "
      f"deadline skips {c['deadline_skips']}, "
      f"resume matches baseline: {r['resume_matches_baseline']}")
f = json.load(open('BENCH_fleet.json'))
print(f"fleet: {f['markets']} markets / {f['sectors_total']} sectors, "
      f"{f['markets_per_second']:.2f} markets/s, "
      f"{f['store_capped']['evictions']} evictions, "
      f"identical under eviction: {f['plans_identical_under_eviction']}, "
      f"matches single-market: {f['plans_match_single_market']}")
PY
