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
#      ~10^3 rate classes), catalog-service (bench_replica_catalog
#      --smoke; its client cache keys a seeded hash) and MSS-staging
#      (bench_staging: cold stages through both access plug-ins and tape
#      drive contention) workloads must produce
#      byte-identical output across two same-seed runs, and
#      again with --hash-perturb, where the two runs get different
#      GDMP_HASH_SEED salts scrambling every unordered container's
#      iteration order. determinism_check also sets GDMP_ROLLUP_FILE, so
#      the observability runs must replay their rollup stream to the byte.
#   7. work counts — every gated bench_sim_kernel row (events fired,
#      operations issued, the packets wan_transfer's tuned WAN transfer
#      delivers) must equal bench/baselines/sim_kernel.json,
#      bench_scheduler's deep_queue row (operations, busy deferrals,
#      replicate() calls) bench/baselines/scheduler.json, and every gated
#      bench_copier_overhead row (the object phase's kernel events, the
#      catalog and CRC rows' operations) bench/baselines/copier_overhead.json,
#      under GDMP_HASH_SEED 0 and 7919 (scripts/bench.sh --compare-counts:
#      no timing, so it holds on any machine; CI runs the same pins).
#
#   scripts/check.sh            # lint + all presets + smoke + determinism
#                               # + kernel, scheduler and copier work counts
#   scripts/check.sh default    # just one preset (skips lint/smoke)
#   scripts/check.sh perf-gate  # non-default: full bench_sim_kernel, bench_flow,
#                               # bench_replica_catalog,
#                               # bench_copier_overhead and
#                               # bench_scheduler runs,
#                               # gated >15% ops/s vs bench/baselines/,
#                               # and on exact work counts (events,
#                               # operations, busy_deferrals,
#                               # replicate_calls) of the same rows
#   scripts/check.sh same-behaviour <base-ref>
#                               # non-default: every perfbench workload
#                               # (seed 5, 2 s, --trace 1) on <base-ref>
#                               # and on the working tree must agree on
#                               # every non-host per-layer metric and
#                               # produce a byte-identical trace.json, and
#                               # (--trace 0) on attempted, failed and the
#                               # three sim-time metrics, bit for bit;
#                               # then the observability example (heartbeat
#                               # on) must print the same stdout and write
#                               # the same rollup stream and trace, and
#                               # hep_analysis, bench_object_vs_file (OBJ1),
#                               # bench_pipeline (PIPE), bench_fig5_untuned,
#                               # bench_fig6_tuned, bench_buffer_sweep
#                               # (T-BUF), bench_staging (STAGE),
#                               # bench_scheduler (SCHED) and
#                               # bench_replica_catalog --smoke (CAT) the
#                               # same stdout
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-default stage: proves a refactor changed nothing a run can observe.
# <base-ref> is exported (git archive) into a temporary directory, and
# perfbench builds and runs it there; the working tree (uncommitted edits
# included) runs in place. "Non-host" metrics are the ones perfbench's
# self-test compares (perfbench/run.py `deterministic`). A traced run
# subscribes to perf markers and an untraced one does not, so the two take
# different paths through GridFTP's monitor (DESIGN.md §5m); each workload
# therefore also runs untraced, where only the outcome and the sim-time
# metrics are printed, and those must match bit for bit. Perfbench never
# turns the heartbeat on, so the stage also runs examples/observability
# in both trees and compares its stdout, rollup stream and trace. Its
# objects_fluid loads one range-only index snapshot, so the stage also
# compares the stdout of hep_analysis, bench_object_vs_file and
# bench_pipeline, which load packed entries and plan across sites, and of
# the deterministic tables that read TCP, GridFTP-server, staging and
# scheduler constants perfbench does not reach: Fig 5, Fig 6, T-BUF, STAGE
# and SCHED, plus CAT --smoke for the catalog service, whose stdout holds
# only sim-time numbers and counts (its rates go to stderr). OBJ2 prints
# host-timed rates, so it stays out. Every
# stage runs and names what differs, so a count a change moves on purpose
# on one workload does not hide the rest; any difference fails the stage
# at the end. Set TMPDIR to put the temporary trees somewhere other than
# /tmp.
if [ "${1:-}" = "same-behaviour" ]; then
  base_ref="${2:?usage: scripts/check.sh same-behaviour <base-ref>}"
  differences=0
  base_tree="$(mktemp -d -t gdmp-same-behaviour.XXXXXX)"
  trap 'rm -rf "$base_tree"' EXIT
  git archive "$base_ref" | tar -x -C "$base_tree"
  for workload in fanout_packet fanout_fluid wide_fluid objects_fluid; do
    echo "==> same behaviour [$workload: $base_ref vs working tree]"
    for tree in "$base_tree" .; do
      (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
        --seed 5 --seconds 2 --trace 1 >/dev/null)
    done
    python3 - "$workload" "$base_tree/.bench_build/out/$workload-5" \
      ".bench_build/out/$workload-5" <<'PY' || differences=1
import json
import sys
from pathlib import Path

sys.path.insert(0, "perfbench")
from run import deterministic  # noqa: E402

workload, base, tree = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
views = [deterministic(json.loads((d / "per_layer.json").read_text())["metrics"])
         for d in (base, tree)]
differ = [name for name in sorted(set(views[0]) | set(views[1]))
          if views[0].get(name) != views[1].get(name)]
for name in differ:
    print(f"{workload}: per-layer {name} differs: base "
          f"{views[0].get(name)}, working tree {views[1].get(name)}")
traces = [(d / "trace.json").read_bytes() for d in (base, tree)]
if traces[0] != traces[1]:
    at = next((i for i, (a, b) in enumerate(zip(*traces)) if a != b),
              min(map(len, traces)))
    window = [t[max(at - 120, 0):at + 120].decode(errors="replace")
              for t in traces]
    sys.exit(f"{workload}: trace.json differs from byte {at}:\n"
             f"  base:         ...{window[0]}...\n"
             f"  working tree: ...{window[1]}...")
if differ:
    sys.exit(f"{workload}: {len(differ)} of {len(views[0])} per-layer "
             f"metrics differ, trace.json identical ({len(traces[0])} bytes)")
print(f"{workload}: {len(views[0])} per-layer metrics equal, "
      f"trace.json identical ({len(traces[0])} bytes)")
PY
    echo "==> same behaviour [$workload --trace 0: $base_ref vs working tree]"
    base_result="$(cd "$base_tree" && python3 perfbench/run.py \
      --workload "$workload" --seed 5 --seconds 2 --trace 0 | tail -n 1)"
    tree_result="$(python3 perfbench/run.py \
      --workload "$workload" --seed 5 --seconds 2 --trace 0 | tail -n 1)"
    python3 - "$workload" "$base_result" "$tree_result" <<'PY' || differences=1
import json
import sys

SIM_TIME = ("makespan_sim_s", "latency_p50_sim_s", "latency_tail_sim_s")


def view(line):
    result = json.loads(line)
    out = {key: result[key] for key in ("attempted", "failed")}
    out.update({name: result["metrics"][name]["value"] for name in SIM_TIME})
    return out


workload = sys.argv[1]
views = [view(line) for line in sys.argv[2:4]]
differ = [name for name, value in views[0].items() if views[1][name] != value]
for name in differ:
    print(f"{workload} --trace 0: {name} differs: base {views[0][name]!r}, "
          f"working tree {views[1][name]!r}")
if differ:
    sys.exit(1)
print(f"{workload} --trace 0: " +
      ", ".join(f"{name} {value!r}" for name, value in views[0].items()) +
      " equal")
PY
  done
  echo "==> same behaviour [observability: $base_ref vs working tree]"
  # Relative output paths, so the "trace written to" line matches too.
  for tree in "$base_tree" .; do
    (cd "$tree" && cmake --preset default >/dev/null &&
      cmake --build --preset default --target observability hep_analysis \
        bench_object_vs_file bench_pipeline bench_fig5_untuned \
        bench_fig6_tuned bench_buffer_sweep bench_staging bench_scheduler \
        bench_replica_catalog -j "$(nproc)" >/dev/null)
  done
  observe() {  # <tree> <run dir>: one run, outputs relative to <run dir>
    mkdir -p "$2"
    (cd "$2" && GDMP_ROLLUP_FILE=rollup.jsonl GDMP_TRACE_FILE=trace.json \
      "$1/build/examples/observability" >stdout.txt)
  }
  runs="$base_tree/.observatory"
  observe "$base_tree" "$runs/base"
  observe "$PWD" "$runs/tree"
  for file in stdout.txt rollup.jsonl trace.json; do
    if ! cmp "$runs/base/$file" "$runs/tree/$file"; then
      echo "observability: $file differs (base first, working tree second)"
      differences=1
      continue
    fi
    echo "observability: $file identical ($(wc -c <"$runs/base/$file") bytes)"
  done
  same_stdout() {  # "<binary> [args]"...: each run prints the same stdout
    for spec in "$@"; do
      read -r binary args <<<"$spec"
      name="$(basename "$binary")"
      for side in base tree; do  # each run in its own dir: benches write JSON
        root="$base_tree"
        [ "$side" = tree ] && root="$PWD"
        mkdir -p "$runs/$side/$name"
        # shellcheck disable=SC2086  # args split into words on purpose
        (cd "$runs/$side/$name" && "$root/build/$binary" $args >stdout.txt)
      done
      if ! cmp "$runs/base/$name/stdout.txt" "$runs/tree/$name/stdout.txt"; then
        echo "$name: stdout differs (base first, working tree second)"
        differences=1
        continue
      fi
      echo "$name: stdout identical" \
        "($(wc -c <"$runs/base/$name/stdout.txt") bytes)"
    done
  }
  echo "==> same behaviour [object path: $base_ref vs working tree]"
  same_stdout examples/hep_analysis bench/bench_object_vs_file \
    bench/bench_pipeline
  echo "==> same behaviour [tables: $base_ref vs working tree]"
  same_stdout bench/bench_fig5_untuned bench/bench_fig6_tuned \
    bench/bench_buffer_sweep bench/bench_staging bench/bench_scheduler \
    "bench/bench_replica_catalog --smoke"
  if [ "$differences" -ne 0 ]; then
    echo "==> same-behaviour vs $base_ref FAILED: differences above"
    exit 1
  fi
  echo "==> all checks passed: same-behaviour vs $base_ref"
  exit 0
fi

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

  echo "==> determinism check [catalog service workload]"
  GDMP_BENCH_OUT=build ./build/tools/determinism_check \
    ./build/bench/bench_replica_catalog --smoke
  GDMP_BENCH_OUT=build ./build/tools/determinism_check --hash-perturb \
    ./build/bench/bench_replica_catalog --smoke

  echo "==> determinism check [MSS staging workload]"
  GDMP_BENCH_OUT=build ./build/tools/determinism_check \
    ./build/bench/bench_staging
  GDMP_BENCH_OUT=build ./build/tools/determinism_check --hash-perturb \
    ./build/bench/bench_staging

  echo "==> work counts [bench_sim_kernel, bench_scheduler and bench_copier_overhead vs baselines, two hash salts]"
  for salt in 0 7919; do
    counts_out="$(mktemp -d /tmp/gdmp-work-counts.XXXXXX)"
    GDMP_HASH_SEED="$salt" scripts/bench.sh \
      --compare-counts bench/baselines/sim_kernel.json "$counts_out" \
      bench_sim_kernel
    GDMP_HASH_SEED="$salt" scripts/bench.sh \
      --compare-counts bench/baselines/scheduler.json "$counts_out" \
      bench_scheduler
    GDMP_HASH_SEED="$salt" scripts/bench.sh \
      --compare-counts bench/baselines/copier_overhead.json "$counts_out" \
      bench_copier_overhead
    rm -rf "$counts_out"
  done
fi

echo "==> all checks passed: ${presets[*]}"
