// OBS — host-time cost of the telemetry subsystem on the replication
// pipeline (same two-site workload as bench_pipeline's transport phase).
//
// Four modes over an identical simulated workload:
//   off        no registry registrations + tracer disabled: components
//              count the same events (the registry only reads those
//              counts), and each span site is one flag check. This is the
//              mode whose overhead vs the uninstrumented pipeline must stay
//              under 2%.
//   metrics    per-site registry attached (the Site default).
//   trace      metrics plus sim-time spans and a Chrome trace export.
//   heartbeat  metrics plus the grid observatory at a deliberately hostile
//              1 s heartbeat quantum (one full rollup per simulated second,
//              rendered into a counting sink). The acceptance bar is
//              vs_metrics_percent < 2% even at this cadence; real
//              deployments tick 60x slower.
//
// Wall-clock is host time (the simulation does identical work in all
// modes, so any delta is instrumentation cost); best-of-N to damp noise.
// All modes drain the scheduler in slices instead of one fixed-horizon
// run_until, so the heartbeat daemon ticks only while work is in flight
// and every mode simulates the same span of time.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace {

using namespace gdmp;
using namespace gdmp::testbed;

// Overridden to a tiny run under --smoke.
std::int64_t g_event_count = 20'000;

struct Mode {
  const char* name;
  bool metrics;
  bool trace;
  bool heartbeat;
};

/// One publish + auto-replicate run; returns host seconds spent simulating.
double run_once(const Mode& mode) {
  GridConfig config = two_site_config();
  config.event_count = g_event_count;
  for (auto& spec : config.sites) {
    spec.site.gdmp.transfer.parallel_streams = 4;
    spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
    spec.site.enable_metrics = mode.metrics;
  }
  config.sites[1].site.gdmp.auto_replicate_on_notify = true;
  // Hostile quantum: one rollup per simulated second (deployments use 60 s).
  if (mode.heartbeat) config.heartbeat_period = 1 * kSecond;
  Grid grid(config);
  if (!grid.start().is_ok()) return -1;
  std::size_t rollup_lines = 0, rollup_bytes = 0;
  if (mode.heartbeat) {
    // Counting sink: the full record is rendered, but no file I/O muddies
    // the host-time comparison.
    grid.heartbeat()->set_sink([&](const std::string& line) {
      ++rollup_lines;
      rollup_bytes += line.size();
    });
  }

  auto& tracer = obs::Tracer::global();
  tracer.clear();
  if (mode.trace) {
    tracer.set_clock([&grid] { return grid.simulator().now(); });
  }
  tracer.enable(mode.trace);

  Site& cern = grid.site(0);
  Site& anl = grid.site(1);
  anl.gdmp().subscribe(cern.host().id(), 2000, [](Status) {});
  grid.run_until(grid.simulator().now() + 30 * kSecond);

  ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = config.event_count;
  auto files = produce_run(cern, production);

  const auto wall_start = std::chrono::steady_clock::now();
  cern.gdmp().publish(files, [](Status) {});
  // Drain in slices: stop as soon as the scheduler is idle so the heartbeat
  // mode is not billed for ticking over hours of empty tail. The first
  // slice always runs (the scheduler only goes busy once the publish
  // notification lands, in sim time). 8 h cap.
  const SimTime deadline = grid.simulator().now() + 8 * 3600 * kSecond;
  do {
    grid.run_until(std::min(deadline,
                            grid.simulator().now() + 10 * 60 * kSecond));
  } while (!anl.scheduler().idle() && grid.simulator().now() < deadline);
  if (mode.trace) (void)obs::Tracer::global().to_chrome_trace();
  if (mode.heartbeat) grid.heartbeat()->finish();
  const auto wall_end = std::chrono::steady_clock::now();

  tracer.enable(false);
  tracer.clear();
  if (!anl.scheduler().idle()) return -1;
  if (mode.heartbeat && (rollup_lines == 0 || rollup_bytes == 0)) return -1;
  return std::chrono::duration<double>(wall_end - wall_start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::BenchReport report("obs_overhead", smoke);
  if (smoke) g_event_count = 4'000;
  constexpr Mode kModes[] = {
      {"off", false, false, false},
      {"metrics", true, false, false},
      {"metrics+trace", true, true, false},
      {"metrics+heartbeat", true, false, true},
  };
  constexpr int kModeCount = 4;
  const int kRepetitions = smoke ? 1 : 3;

  std::printf("OBS: host wall-clock of one publish + auto-replicate run "
              "(best of %d)\n\n", kRepetitions);

  // One untimed pass warms the allocator, then repetitions interleave the
  // modes so none of them benefits from running last.
  if (!smoke) (void)run_once(kModes[0]);
  double best[kModeCount] = {-1, -1, -1, -1};
  bool ok = true;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (int m = 0; m < kModeCount; ++m) {
      const double seconds = run_once(kModes[m]);
      if (seconds < 0) {
        ok = false;
        continue;
      }
      if (best[m] < 0 || seconds < best[m]) best[m] = seconds;
    }
  }

  std::printf("%-18s %12s %12s %12s\n", "mode", "host s", "vs off",
              "vs metrics");
  const double off = best[0];
  const double metrics = best[1];
  for (int m = 0; m < kModeCount; ++m) {
    if (best[m] < 0) {
      std::printf("%-18s %12s\n", kModes[m].name, "FAILED");
      continue;
    }
    const double vs_off = off > 0 ? (best[m] / off - 1.0) * 100.0 : 0.0;
    const double vs_metrics =
        metrics > 0 ? (best[m] / metrics - 1.0) * 100.0 : 0.0;
    std::printf("%-18s %12.3f %+11.1f%% %+11.1f%%\n", kModes[m].name,
                best[m], vs_off, vs_metrics);
    report.add({{"mode", kModes[m].name},
                {"host_seconds", best[m]},
                {"vs_off_percent", vs_off},
                {"vs_metrics_percent", vs_metrics}});
  }
  std::printf(
      "\nthe 'off' mode runs the exact bench_pipeline configuration --\n"
      "components count the same events whether or not a registry reads\n"
      "them, so its overhead against the uninstrumented pipeline is\n"
      "bounded well under 2%%. the 'metrics+heartbeat' bar is\n"
      "vs_metrics_percent < 2%% at the 1 s quantum; the shipped examples\n"
      "tick every 60 s.\n");
  return ok ? 0 : 1;
}
