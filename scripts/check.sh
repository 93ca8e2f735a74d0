#!/usr/bin/env bash
# Full pre-merge check:
#   1. lint   — gdmp_lint over src/ (project invariants: sim-determinism,
#               callback lifetime, ownership cycles, hygiene, plus the
#               include-graph pass against the layer DAG in
#               tools/gdmp_lint/layers.conf) + clang-tidy when available
#               (scripts/tidy.sh skips cleanly when not).
#   2. build + test the default, asan and ubsan presets.
#   3. bench smoke — every bench binary runs one tiny --smoke iteration
#      (ctest label bench_smoke) so the perf harnesses cannot bit-rot.
#   4. trace export smoke test (observability example -> Chrome trace_event
#      JSON -> trace_check validates the replication span chain).
#   5. rollup smoke test (observability example with its 60 s heartbeat ->
#      JSONL rollup stream -> obs_report --validate + summary).
#   6. determinism check — scheduler (observability), object-replication
#      (hep_analysis), fluid-transfer (full bench_flow: 10^5 flows in
#      ~10^3 rate classes) and sharded-catalog (bench_replica_catalog
#      --smoke) workloads must produce
#      byte-identical output across two same-seed runs, and
#      again with --hash-perturb, where the two runs get different
#      GDMP_HASH_SEED salts scrambling every unordered container's
#      iteration order. determinism_check also sets GDMP_ROLLUP_FILE, so
#      the observability runs must replay their rollup stream to the byte.
#
#   scripts/check.sh            # lint + all presets + smoke + determinism
#   scripts/check.sh default    # just one preset (skips lint/smoke)
#   scripts/check.sh perf-gate  # non-default: full bench_sim_kernel, bench_flow,
#                               # bench_replica_catalog,
#                               # bench_copier_overhead and
#                               # bench_scheduler runs,
#                               # gated >15% ops/s vs bench/baselines/
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-default stage: wall-clock-sensitive, so it never rides the default
# sweep (CI containers and loaded dev boxes would flake it). Run it by name
# on a quiet machine; refresh the baseline when kernel perf work lands.
if [ "${1:-}" = "perf-gate" ]; then
  echo "==> perf gate (bench_sim_kernel + bench_flow + bench_replica_catalog"
  echo "    + bench_copier_overhead + bench_scheduler vs checked-in baselines)"
  gate_out="$(mktemp -d /tmp/gdmp-perf-gate.XXXXXX)"
  trap 'rm -rf "$gate_out"' EXIT
  scripts/bench.sh --compare bench/baselines \
    "$gate_out" bench_sim_kernel bench_flow bench_replica_catalog \
    bench_copier_overhead bench_scheduler
  echo "==> all checks passed: perf-gate"
  exit 0
fi

smoke=0
presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan ubsan)
  smoke=1
fi

if [ "$smoke" -eq 1 ]; then
  echo "==> lint [gdmp_lint: layers + hygiene + hot-path/handle-lifetime + obligations]"
  cmake --preset default >/dev/null
  cmake --build build --target gdmp_lint -j "$(nproc)"
  ./build/tools/gdmp_lint --layers tools/gdmp_lint/layers.conf --hot-paths \
    --obligations src/
  echo "==> lint [clang-tidy]"
  scripts/tidy.sh
fi

for preset in "${presets[@]}"; do
  echo "==> configure [$preset]"
  cmake --preset "$preset"
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==> test [$preset]"
  ctest --preset "$preset"
done

if [ "$smoke" -eq 1 ]; then
  echo "==> bench smoke (one tiny iteration of every bench binary)"
  ctest --preset bench-smoke

  echo "==> trace export smoke test"
  trace_file="$(mktemp /tmp/gdmp-trace.XXXXXX.json)"
  rollup_file="$(mktemp /tmp/gdmp-rollup.XXXXXX.jsonl)"
  trap 'rm -f "$trace_file" "$rollup_file"' EXIT
  GDMP_TRACE_FILE="$trace_file" ./build/examples/observability >/dev/null
  ./build/tools/trace_check "$trace_file" --require \
    rpc.request sched.request sched.queue_wait gdmp.replicate \
    gridftp.transfer gridftp.stream gridftp.crc_check gdmp.catalog_update

  echo "==> rollup smoke test (heartbeat JSONL -> obs_report)"
  GDMP_ROLLUP_FILE="$rollup_file" ./build/examples/observability >/dev/null
  ./build/tools/obs_report --validate "$rollup_file"
  ./build/tools/obs_report "$rollup_file" >/dev/null

  echo "==> determinism check [scheduler workload]"
  ./build/tools/determinism_check ./build/examples/observability
  ./build/tools/determinism_check --hash-perturb ./build/examples/observability

  echo "==> determinism check [object replication workload]"
  ./build/tools/determinism_check ./build/examples/hep_analysis
  ./build/tools/determinism_check --hash-perturb ./build/examples/hep_analysis

  echo "==> determinism check [fluid transfer workload, grid scale]"
  GDMP_BENCH_OUT=build ./build/tools/determinism_check \
    ./build/bench/bench_flow
  GDMP_BENCH_OUT=build ./build/tools/determinism_check --hash-perturb \
    ./build/bench/bench_flow

  echo "==> determinism check [sharded catalog workload]"
  GDMP_BENCH_OUT=build ./build/tools/determinism_check \
    ./build/bench/bench_replica_catalog --smoke
  GDMP_BENCH_OUT=build ./build/tools/determinism_check --hash-perturb \
    ./build/bench/bench_replica_catalog --smoke
fi

echo "==> all checks passed: ${presets[*]}"
