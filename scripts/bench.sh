#!/usr/bin/env bash
# Runs every benchmark binary at full size and collects the machine-readable
# BENCH_*.json reports (plus the raw stdout tables) in one directory, so
# perf changes diff numerically across PRs.
#
#   scripts/bench.sh                 # all benches -> bench_results/
#   scripts/bench.sh out_dir         # all benches -> out_dir/
#   scripts/bench.sh out_dir bench_sim_kernel bench_fig6_tuned   # a subset
#   scripts/bench.sh --compare baseline.json out_dir bench_sim_kernel
#                                    # then gate: exit 1 if any ops/s
#                                    # regressed >15% vs the baseline, or if
#                                    # a gated row's work counts differ
#   scripts/bench.sh --compare bench/baselines out_dir bench_sim_kernel bench_flow
#                                    # a baseline *directory* gates every
#                                    # <stem>.json against BENCH_<stem>.json
#   scripts/bench.sh --compare-counts bench/baselines/scheduler.json out_dir bench_scheduler
#                                    # only the work-count half of the gate:
#                                    # no timing, so it holds on any machine
#
# Work counts are the integer fields in COUNTS below. The workloads are
# deterministic, so a row that does more or less counted work than its
# baseline did is a different workload, not a faster or slower one: the
# gate fails it whatever its ops/s. Only rows gated on ops/s are checked.
set -euo pipefail
cd "$(dirname "$0")/.."

compare_baseline=""
gate_mode="all"
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --compare|--compare-counts)
      [ $# -ge 2 ] || { echo "bench.sh: $1 needs a baseline JSON" >&2; exit 2; }
      compare_baseline="$2"
      [ "$1" = "--compare-counts" ] && gate_mode="counts"
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done
set -- ${args[@]+"${args[@]}"}

out="${1:-bench_results}"
[ $# -gt 0 ] && shift
mkdir -p "$out"

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
  benches=(
    bench_sim_kernel
    bench_fig5_untuned
    bench_fig6_tuned
    bench_buffer_sweep
    bench_object_vs_file
    bench_copier_overhead
    bench_staging
    bench_replica_catalog
    bench_pipeline
    bench_scheduler
    bench_obs_overhead
    bench_flow
  )
fi

cmake --preset default >/dev/null
cmake --build build -j "$(nproc)" >/dev/null

for bench in "${benches[@]}"; do
  echo "==> ${bench}"
  GDMP_BENCH_OUT="$out" "./build/bench/${bench}" | tee "$out/${bench}.txt"
done

if [ ${#benches[@]} -eq 0 ] || [[ " ${benches[*]} " == *" bench_micro "* ]]; then
  # google-benchmark microbenches emit their own JSON schema.
  echo "==> bench_micro"
  ./build/bench/bench_micro --benchmark_format=json >"$out/BENCH_micro.json"
fi

echo "==> reports in $out/:"
ls "$out"

if [ -n "$compare_baseline" ]; then
  if [ -d "$compare_baseline" ]; then
    baseline_files=("$compare_baseline"/*.json)
  else
    baseline_files=("$compare_baseline")
  fi
  gate_failed=0
  for baseline in "${baseline_files[@]}"; do
    stem="$(basename "$baseline" .json)"
    current="$out/BENCH_${stem}.json"
    if [ ! -f "$current" ]; then
      echo "==> perf gate: skip $stem (no $current in this run)"
      continue
    fi
    echo "==> perf gate: $current vs $baseline"
    python3 - "$baseline" "$current" "$gate_mode" <<'PYGATE' || gate_failed=1
import json
import sys

THRESHOLD = 0.15  # fail when ops/s drops more than this fraction
# Work counts a gated row must repeat exactly (each checked where present).
COUNTS = ("events", "operations", "busy_deferrals", "replicate_calls")

def ops_per_sec(result):
    """events-or-operations per second; None for rows with neither."""
    n = result.get("events", result.get("operations"))
    seconds = result.get("new_seconds", result.get("wall_seconds"))
    if n is None or not seconds:
        return None
    return n / seconds

def row_key(r):
    # sim_kernel-style rows key on "name"; flow-style rows key on "part"
    # plus their sweep parameters (several rows can share one part).
    key = r.get("name", r.get("part", "?"))
    for param in ("file_mib", "streams", "sites", "flows"):
        if param in r:
            key += f"/{param}={r[param]}"
    return key

def load(path):
    with open(path) as f:
        report = json.load(f)
    return {row_key(r): r for r in report.get("results", [])}

baseline_path, current_path, mode = sys.argv[1], sys.argv[2], sys.argv[3]
baseline, current = load(baseline_path), load(current_path)
failed = False
for name, base in baseline.items():
    base_ops = ops_per_sec(base)
    if base_ops is None:
        continue  # rows that report no count or no seconds are not gated
    cur = current.get(name)
    if cur is None:
        print(f"FAIL {name}: present in baseline, missing from current run")
        failed = True
        continue
    counts_differ = False
    for key in COUNTS:
        if key in base and cur.get(key) != base[key]:
            print(f"FAIL {name}: {key} {base[key]:,} -> {cur.get(key)} "
                  f"(work counts must match exactly)")
            counts_differ = True
    failed = failed or counts_differ
    if mode == "counts":
        if not counts_differ:
            print(f"  ok {name}: work counts match")
        continue
    cur_ops = ops_per_sec(cur)
    if cur_ops is None:
        print(f"FAIL {name}: current run reports no ops/s")
        failed = True
        continue
    delta = (cur_ops - base_ops) / base_ops
    verdict = "ok"
    if delta < -THRESHOLD:
        verdict = "FAIL"
        failed = True
    print(f"{verdict:>4} {name}: {base_ops:,.0f} -> {cur_ops:,.0f} ops/s "
          f"({delta:+.1%}, gate -{THRESHOLD:.0%})")
if failed:
    print(f"perf gate FAILED vs {baseline_path}")
    sys.exit(1)
print("perf gate passed")
PYGATE
  done
  if [ "$gate_failed" -ne 0 ]; then
    echo "perf gate FAILED (see above)"
    exit 1
  fi
fi
