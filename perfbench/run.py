#!/usr/bin/env python3
"""Replication-campaign benchmark runner.

Builds the simulator library and the campaign driver from this checkout's
sources into .bench_build/perfbench (CMake, RelWithDebInfo), then runs one
workload and relays the driver's output. Run from the repository root:

  python3 perfbench/run.py --workload fanout_fluid --seed 7 --seconds 15 --trace 0
  python3 perfbench/run.py --workload fanout_fluid --seed 7 --seconds 15 --trace 1
  python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(and writes per_layer.json, trace.json and host_trace.json under
.bench_build/out/<workload>-<seed>/). The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. The exit
status is non-zero when the build fails or the outcome oracle rejects the
run, and then no result line is promised.

--self-test runs every workload at smoke size twice with one seed and once
under a perturbed GDMP_HASH_SEED, requires identical sim-time metrics and
per-layer counts across the three, and validates each trace with the
repository's trace_check.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ["fanout_packet", "fanout_fluid", "wide_fluid", "objects_fluid"]
RUN_TIMEOUT_S = 170
# Host-time figures: they vary run to run, so the self-test skips them.
HOST_METRICS = {"setup_s", "wall_s", "cpu_s", "peak_rss_mib",
                "obs.trace_overhead", "sim.ns_per_event"}
# Program spans each workload's trace must contain.
FILE_STAGES = ["sched.queue_wait", "gdmp.replicate", "gridftp.transfer",
               "gridftp.crc_check", "gdmp.catalog_update", "rpc.request"]
REQUIRED_SPANS = {
    "fanout_packet": FILE_STAGES + ["gridftp.stream"],
    "fanout_fluid": FILE_STAGES,
    "wide_fluid": FILE_STAGES,
    "objects_fluid": ["gridftp.transfer", "gridftp.crc_check", "rpc.request"],
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "testbed" / "grid.h").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_campaign(args, env=None):
    """Runs the driver; returns (exit code, stdout text)."""
    command = [str(BUILD / "campaign")] + args
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1, ""
    return done.returncode, done.stdout


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def measure(options):
    out_dir = OUT / f"{options.workload}-{options.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    code, stdout = run_campaign([
        "--workload", options.workload, "--seed", str(options.seed),
        "--seconds", str(options.seconds), "--trace", str(options.trace),
        "--out", str(out_dir)])
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code != 0 or parse_result(stdout) is None:
        log(f"run failed (exit {code})")
        return 1
    return 0


def deterministic(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name not in HOST_METRICS and not name.startswith("host.")}


def self_test():
    seed = "11"
    failures = 0
    for workload in WORKLOADS:
        views = []
        for label, hash_seed in (("run 1", None), ("run 2", None),
                                 ("perturbed hash", "24301")):
            env = dict(os.environ)
            env.pop("GDMP_HASH_SEED", None)
            if hash_seed is not None:
                env["GDMP_HASH_SEED"] = hash_seed
            out_dir = OUT / f"selftest-{workload}"
            out_dir.mkdir(parents=True, exist_ok=True)
            view = {}
            for trace in ("0", "1"):
                code, stdout = run_campaign(
                    ["--workload", workload, "--seed", seed, "--seconds", "0",
                     "--trace", trace, "--smoke", "--out", str(out_dir)], env)
                result = parse_result(stdout)
                if code != 0 or result is None or not result["correct"]:
                    log(f"{workload} {label} trace={trace}: run failed")
                    failures += 1
                    continue
                view.update(deterministic(result["metrics"]))
            check = subprocess.run(
                [str(BUILD / "trace_check"), str(out_dir / "trace.json"),
                 "--require"] + REQUIRED_SPANS[workload], stdout=sys.stderr, stderr=sys.stderr)
            if check.returncode != 0:
                log(f"{workload} {label}: trace_check failed")
                failures += 1
            views.append((label, view))
        base_label, base = views[0]
        for label, view in views[1:]:
            diff = sorted(k for k in set(base) | set(view)
                          if base.get(k) != view.get(k))
            if diff:
                log(f"{workload}: {label} differs from {base_label} on "
                    + ", ".join(diff[:8]))
                failures += 1
        log(f"{workload}: {len(base)} deterministic metrics compared")
    print(json.dumps({"self_test": "pass" if failures == 0 else "fail",
                      "failures": failures}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    options = parser.parse_args()
    if not options.self_test and options.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    return self_test() if options.self_test else measure(options)


if __name__ == "__main__":
    sys.exit(main())
