#!/usr/bin/env bash
# Full verification: regular build + tests, a perf smoke of the coverage
# index against the legacy scan (fails if the index is slower), the
# profiler attribution smoke (--profile report invariants), the bench
# regression gate (bench_regress.py self-test, plus a full re-run diffed
# against the committed BENCH_*.json baselines in the non-fast pass), the
# SIMD matrix leg (a MAGUS_SIMD=OFF build running the same suite on the
# scalar backend — the bit-identity contract's other lane width), the
# same test suite under ASan+UBSan (the Sanitize build type / "sanitize"
# CMake preset), and the thread-pool / parallel-evaluation tests under
# ThreadSanitizer (the Tsan build type / "tsan" preset; TSan cannot be
# combined with ASan, hence its own tree).
#
#   scripts/verify.sh            # all three passes
#   scripts/verify.sh --fast     # regular pass only, skipping `slow`-labeled
#                                # tests (crash-injection harness, journal
#                                # byte-offset fuzz, integration suites)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> Regular build + tests (RelWithDebInfo)"
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest_args=()
(( fast )) && ctest_args+=(-LE slow)
ctest --test-dir build --output-on-failure -j "$jobs" "${ctest_args[@]}"

echo "==> Observability artifacts (--json --metrics --trace)"
artifacts=$(mktemp -d)
trap 'rm -rf "$artifacts"' EXIT
./build/bench/bench_fig12_convergence --threads 2 \
  --json "$artifacts/summary.json" \
  --metrics "$artifacts/metrics.json" \
  --trace "$artifacts/trace.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
d = sys.argv[1]
summary = json.load(open(f"{d}/summary.json"))
assert summary["candidate_evaluations"] > 0, "empty bench summary"
metrics = json.load(open(f"{d}/metrics.json"))
assert metrics["counters"]["evaluator.evals"] > 0, "no evaluator metrics"
assert any(k.startswith("evaluator.worker.") for k in metrics["counters"]), \
    "no per-worker counters"
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"]
assert events, "empty trace"
cats = {e["cat"] for e in events}
assert {"planner", "evaluator", "model"} <= cats, f"missing subsystems: {cats}"
print(f"artifacts OK: {len(events)} trace events, "
      f"{len(metrics['counters'])} counters")
EOF

echo "==> Perf smoke: coverage index vs legacy demotion workload"
./build/bench/bench_micro_model \
  --benchmark_filter='PerfSmokeSummaryOnly' \
  --json "$artifacts/model.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
m = json.load(open(f"{sys.argv[1]}/model.json"))
speedup = m["demotion_speedup"]
assert speedup >= 1.0, (
    f"coverage index slower than legacy scan: {speedup:.2f}x demotion")
print(f"perf smoke OK: demotion {speedup:.2f}x, "
      f"rebuild {m['rebuild_speedup']:.2f}x, "
      f"index {m['index_bytes']} bytes")
EOF

echo "==> Perf smoke: path-loss build pipeline vs legacy kernel"
./build/bench/bench_pathloss_build --region-km 6 --study-km 3 --threads 4 \
  --json "$artifacts/pathloss.json" \
  --metrics "$artifacts/pathloss_metrics.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
p = json.load(open(f"{sys.argv[1]}/pathloss.json"))
speedup = p["speedup_parallel_vs_legacy"]
assert speedup >= 1.0, (
    f"parallel path-loss build slower than legacy serial: {speedup:.2f}x")
assert p["entries_identical"], "serial/parallel footprints differ bitwise"
assert p["files_identical"], "serial/parallel saved databases differ"
assert p["load_round_trip_ok"], "parallel load round trip failed"
m = json.load(open(f"{sys.argv[1]}/pathloss_metrics.json"))
assert m["counters"]["pathloss.build.matrices"] > 0, "no build metrics"
print(f"perf smoke OK: path-loss build {speedup:.2f}x vs legacy, "
      f"{p['matrices']} matrices, "
      f"{m['counters']['pathloss.build.matrices']} counted")
EOF

echo "==> Fleet smoke: byte-budgeted multi-market planning"
# A small fleet through the MarketStore + WavePlanner stack: the byte
# budget must actually evict, and neither eviction/reload nor the store
# path itself may change any market's plan (fingerprint identity against
# the unconstrained run and the standalone single-market planner).
./build/bench/bench_fleet_campaign --markets 12 --region-km 3 --study-km 2 \
  --replan 4 --samples 2 --db-dir "$artifacts/fleet_db" \
  --json "$artifacts/fleet.json" \
  --metrics "$artifacts/fleet_metrics.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
f = json.load(open(f"{sys.argv[1]}/fleet.json"))
assert f["store_capped"]["evictions"] > 0, "byte budget never evicted"
assert f["plans_identical_under_eviction"], "eviction changed a market's plan"
assert f["plans_match_single_market"], \
    "fleet path diverged from the single-market planner"
m = json.load(open(f"{sys.argv[1]}/fleet_metrics.json"))
assert m["counters"]["fleet.store.evictions"] > 0, "no store metrics"
print(f"fleet smoke OK: {f['markets']} markets / {f['sectors_total']} "
      f"sectors, {f['store_capped']['evictions']} evictions, "
      f"plans identical under eviction")
EOF

echo "==> Streaming smoke: mmap cold open + footprint-granular residency"
# The zero-copy path's contract, end to end: a mapped open must beat the
# eager load of the same file >= 5x cold, mapped windows must be
# bit-identical to the eager load (including across a release/re-touch
# cycle), and a budget-capped fleet sweep must keep the enforced resident
# peak at or under the budget line while planning to the exact unbounded
# fingerprints. The second run pins MAGUS_NO_MMAP=1 — the positioned-read
# fallback must deliver the same invariants and the same fleet
# fingerprint, so the portability lane never drifts from the mmap lane.
streaming_args=(--region-km 6 --study-km 3 --tilts 3 --reps 2
                --fleet-markets 3 --threads 4)
./build/bench/bench_pathloss_open "${streaming_args[@]}" \
  --db-dir "$artifacts/streaming_db" \
  --json "$artifacts/streaming.json" >/dev/null
MAGUS_NO_MMAP=1 ./build/bench/bench_pathloss_open "${streaming_args[@]}" \
  --db-dir "$artifacts/streaming_db_nommap" \
  --json "$artifacts/streaming_nommap.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
d = sys.argv[1]
s = json.load(open(f"{d}/streaming.json"))
n = json.load(open(f"{d}/streaming_nommap.json"))
assert s["using_mmap"], "mmap leg fell back to positioned reads"
assert not n["using_mmap"], "MAGUS_NO_MMAP=1 leg still mmap'd"
for name, run in (("mmap", s), ("no-mmap", n)):
    assert run["cold_open_speedup_ge_5x"], (
        f"{name}: cold open only {run['speedup_cold_open']:.1f}x vs eager load")
    assert run["mapped_equals_eager"], f"{name}: windows differ from eager"
    assert run["identical_after_release"], (
        f"{name}: release/re-touch changed a window")
    assert run["plans_identical_across_budgets"], (
        f"{name}: budget changed a market's plan")
    assert run["under_budget"], f"{name}: enforced peak exceeded the budget"
    assert run["releases_total"] > 0, f"{name}: no footprint releases"
assert s["fleet_fingerprint"] == n["fleet_fingerprint"], (
    "mmap and positioned-read providers planned different fleets")
print(f"streaming smoke OK: cold open {s['speedup_cold_open']:.0f}x "
      f"(no-mmap {n['speedup_cold_open']:.0f}x), "
      f"{s['releases_total']} releases, enforced peak "
      f"{s['enforced_peak_budgeted'] / 2**20:.1f} MiB <= budget "
      f"{s['budget_bytes'] / 2**20:.1f} MiB, fingerprints match")
EOF

echo "==> Profiler smoke: --profile attribution report"
# The profile run reuses the micro-model summary workload (serial +
# 8-thread batch-scoring sweep). The report must parse, every worker's
# buckets must sum to its wall span within 1%, the critical path must
# cover the root phase's makespan within 5%, and on worker threads the
# top sink must be a wait state, not compute (one core timeshared across
# 8 workers cannot be compute-bound on all of them).
./build/bench/bench_micro_model --threads 8 \
  --benchmark_filter='PerfSmokeSummaryOnly' \
  --json "$artifacts/profile_model.json" \
  --profile "$artifacts/profile.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
d = sys.argv[1]
r = json.load(open(f"{d}/profile.json"))
assert r["thread_count"] >= 8, f"expected >=8 threads, got {r['thread_count']}"
assert r["span_count"] > 0, "empty profile"
for w in r["workers"]:
    total = sum(w["bucket_us"].values())
    wall = w["wall_us"]
    assert abs(total - wall) <= 0.01 * max(wall, 1e-9), (
        f"t{w['thread']}: buckets sum {total:.1f}us vs wall {wall:.1f}us")
assert r["makespan_us"] > 0, "no root phase"
assert abs(r["critical_path_us"] - r["makespan_us"]) <= 0.05 * r["makespan_us"], (
    f"critical path {r['critical_path_us']:.0f}us vs "
    f"makespan {r['makespan_us']:.0f}us")
assert r["critical_path"], "empty critical path"
assert r["top_time_sink"] in {"queue_wait", "barrier", "lock_wait", "db_io"}, (
    f"top sink should be a wait state here, got {r['top_time_sink']}")
assert r["meta"]["timestamp_utc"].endswith("Z"), "missing run metadata"
folded = open(f"{d}/profile.json.folded").read().splitlines()
assert folded, "empty folded stacks"
for line in folded:
    stack, count = line.rsplit(" ", 1)
    assert stack.startswith("t") and int(count) > 0, f"bad folded line: {line}"
summary = json.load(open(f"{d}/profile_model.json"))
assert summary["meta"]["git_sha"], "bench summary missing run metadata"
print(f"profiler OK: {r['thread_count']} threads, "
      f"{r['span_count']} spans, top sink {r['top_time_sink']}, "
      f"critical path {len(r['critical_path'])} steps "
      f"({100 * r['critical_path_us'] / r['makespan_us']:.1f}% of makespan), "
      f"{len(folded)} folded stacks")
EOF

echo "==> Bench regression gate: self-test"
python3 scripts/bench_regress.py --self-test >/dev/null
echo "regression gate self-test OK"

if (( fast )); then
  echo "==> Skipping bench regression check + sanitizer pass (--fast)"
  exit 0
fi

echo "==> Bench regression check against committed baselines"
scripts/bench_baseline.sh --check build

echo "==> SIMD matrix: MAGUS_SIMD=OFF build + tests (scalar backend)"
# The SIMD layer promises bitwise-identical results at every lane width.
# One leg of that promise is checked here: the whole suite (identity tests
# included) must pass with the vector backends compiled out. The other leg
# — the best native backend — is the regular build above; the sanitizer
# pass below re-runs the identity tests under ASan+UBSan on that backend.
cmake -B build-simd-off -S . -DMAGUS_SIMD=OFF >/dev/null
cmake --build build-simd-off -j "$jobs"
ctest --test-dir build-simd-off --output-on-failure -j "$jobs" -LE slow

echo "==> Sanitizer build + tests (ASan + UBSan)"
cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=Sanitize >/dev/null
cmake --build build-sanitize -j "$jobs"
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  ctest --test-dir build-sanitize --output-on-failure -j "$jobs"

echo "==> Crash-injection harness under ASan + UBSan"
# The crash-safety oracle: kill the executor / campaign runner at every
# journal record boundary, resume from the write-ahead log, and fail on
# any divergence from the uninterrupted run (trace, final configuration,
# or a re-pushed confirmed step). The journal fuzz (truncation at every
# byte offset) rides along in the same filter.
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  ./build-sanitize/tests/magus_tests \
    --gtest_filter='RecoveryTest.*:CampaignTest.*:JournalTest.*'

echo "==> ThreadSanitizer build + parallel tests (TSan)"
# magus_parallel_tests includes exec_recovery_parallel_test: the campaign
# runner's crash/resume path on a multi-threaded planner pool.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Tsan >/dev/null
cmake --build build-tsan -j "$jobs" --target magus_parallel_tests
TSAN_OPTIONS="halt_on_error=1" \
  ./build-tsan/tests/magus_parallel_tests

echo "==> verify OK"
