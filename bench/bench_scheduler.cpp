// SCHED — queued vs. serial bulk replication, and cost-aware routing.
//
// A consumer pulls a 32-file production batch that is replicated at three
// producer sites with very different uplinks (155 / 45 / 10 Mbit/s). Two
// scheduler configurations replicate the same batch:
//
//   serial: max_concurrent = 1 (the bare §4.1 one-at-a-time consumer path)
//   queued: max_concurrent = 4 (bounded-concurrency scheduler)
//
// Single-stream transfers with a 256 KiB window are latency-bound on the
// 125 ms WAN RTT, so overlapping four of them is where the scheduler wins.
// The run also reports the routing split of the cost-aware selector: after
// one probe per site, EWMA bandwidth history should steer the bulk of the
// batch to the 155 Mbit/s source.
//
// A third, host-timed row (deep_queue, JSON report only) queues a few
// hundred files from one producer at a consumer capped at 4 concurrent / 2
// per source under the fluid model: every completion re-checks the whole
// parked queue, so the row times the scheduler's busy-refusal path. It is
// gated in bench/baselines/scheduler.json on operations (completions plus
// busy deferrals) per wall second.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace {

using namespace gdmp;
using namespace gdmp::testbed;

// Overridden to a tiny batch under --smoke.
int kFiles = 32;
Bytes kFileSize = 8 * kMiB;
int kDeepQueueFiles = 800;

/// Seeds `count` files at each of the first `producers` sites (same seed +
/// size -> same CRC), publishes them from site 0 and registers the other
/// producers as replica locations. Returns the batch, empty on failure.
std::vector<LogicalFileName> seed_batch(Grid& grid, std::size_t producers,
                                        int count, Bytes size,
                                        const std::string& prefix,
                                        std::uint64_t seed) {
  std::vector<core::PublishedFile> files;
  std::vector<LogicalFileName> lfns;
  for (int i = 0; i < count; ++i) {
    const LogicalFileName lfn = prefix + std::to_string(i);
    for (std::size_t s = 0; s < producers; ++s) {
      (void)grid.site(s).pool().add_file(
          grid.site(s).gdmp_server().local_path_for(lfn), size, seed + i, 0);
    }
    core::PublishedFile file;
    file.lfn = lfn;
    files.push_back(file);
    lfns.push_back(lfn);
  }
  bool seeded = false;
  grid.site(0).gdmp().publish(files, [&](Status s) { seeded = s.is_ok(); });
  grid.run_until(grid.simulator().now() + 120 * kSecond);
  if (!seeded) return {};
  std::size_t replicas_pending = (producers - 1) * lfns.size();
  for (std::size_t s = 1; s < producers; ++s) {
    for (const auto& lfn : lfns) {
      grid.site(s).gdmp_server().catalog().add_replica(
          "cms", lfn, grid.site(s).name(),
          grid.site(s).gdmp_server().url_prefix(),
          [&](Status status) {
            if (status.is_ok()) --replicas_pending;
          });
    }
  }
  grid.run_until(grid.simulator().now() + 120 * kSecond);
  if (replicas_pending != 0) return {};
  return lfns;
}

struct RunResult {
  double seconds = -1;
  std::int64_t completed = 0;
  std::int64_t busy_deferrals = 0;
  int peak_active = 0;
  std::map<std::string, std::int64_t> by_source;
};

RunResult run_once(int max_concurrent, int max_per_source) {
  GridConfig config;
  GridSiteSpec fast{.name = "fnal"};
  fast.wan.wan_bandwidth = 155 * kMbps;
  GridSiteSpec mid{.name = "cern"};
  mid.wan.wan_bandwidth = 45 * kMbps;
  GridSiteSpec slow{.name = "anl"};
  slow.wan.wan_bandwidth = 10 * kMbps;
  GridSiteSpec consumer{.name = "lyon"};
  consumer.wan.wan_bandwidth = 622 * kMbps;  // downlink is never the bottleneck
  config.sites = {fast, mid, slow, consumer};
  config.event_count = 1000;
  for (auto& spec : config.sites) {
    spec.site.gdmp.transfer.tcp_buffer = 256 * kKiB;
    spec.site.gdmp.transfer.parallel_streams = 1;
  }
  config.sites[3].site.sched.max_concurrent = max_concurrent;
  config.sites[3].site.sched.max_per_source = max_per_source;

  Grid grid(config);
  if (!grid.start().is_ok()) return {};
  const auto lfns =
      seed_batch(grid, 3, kFiles, kFileSize, "lfn://cms/batch/", 0xbe7c0);
  if (lfns.empty()) return {};

  auto& scheduler = grid.site(3).scheduler();
  const SimTime start = grid.simulator().now();
  RunResult result;
  bool done = false;
  scheduler.submit_batch(lfns, 0, [&](Status status, Bytes) {
    done = status.is_ok();
    result.seconds = to_seconds(grid.simulator().now() - start);
  });
  grid.run_until(grid.simulator().now() + 8 * 3600 * kSecond);
  if (!done) return {};
  result.completed = scheduler.stats().completed;
  result.busy_deferrals = scheduler.stats().busy_deferrals;
  result.peak_active = scheduler.stats().peak_active;
  result.by_source = scheduler.stats().completed_by_source;
  return result;
}

struct DeepQueueResult {
  double wall_seconds = -1;
  std::int64_t completed = 0;
  std::int64_t busy_deferrals = 0;
  std::int64_t replicate_calls = 0;
};

DeepQueueResult run_deep_queue() {
  GridConfig config;
  GridSiteSpec producer{.name = "cern"};
  producer.wan.wan_bandwidth = 155 * kMbps;
  GridSiteSpec consumer{.name = "lyon"};
  consumer.wan.wan_bandwidth = 622 * kMbps;
  config.sites = {producer, consumer};
  config.event_count = 1000;
  config.transfer_model = flow::TransferModel::kFluid;
  config.sites[1].site.sched.max_concurrent = 4;
  config.sites[1].site.sched.max_per_source = 2;

  Grid grid(config);
  if (!grid.start().is_ok()) return {};
  const auto lfns =
      seed_batch(grid, 1, kDeepQueueFiles, 1 * kMiB, "lfn://cms/deep/", 0xdee9);
  if (lfns.empty()) return {};

  auto& scheduler = grid.site(1).scheduler();
  bool done = false;
  const auto wall_start = std::chrono::steady_clock::now();
  scheduler.submit_batch(lfns, 0,
                         [&](Status status, Bytes) { done = status.is_ok(); });
  grid.run_until(grid.simulator().now() + 8 * 3600 * kSecond);
  DeepQueueResult result;
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  if (!done) return {};
  result.completed = scheduler.stats().completed;
  result.busy_deferrals = scheduler.stats().busy_deferrals;
  result.replicate_calls = scheduler.stats().dispatched;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = gdmp::bench::smoke_mode(argc, argv);
  gdmp::bench::BenchReport report("scheduler", smoke);
  if (smoke) {
    kFiles = 4;
    kFileSize = 2 * kMiB;
    kDeepQueueFiles = 24;
  }
  std::printf("SCHED: queued vs serial replication, %d x %lld MiB, 3 sources\n\n",
              kFiles, static_cast<long long>(kFileSize / kMiB));

  const RunResult serial = run_once(/*max_concurrent=*/1, /*max_per_source=*/1);
  const RunResult queued = run_once(/*max_concurrent=*/4, /*max_per_source=*/4);
  if (serial.seconds < 0 || queued.seconds < 0) {
    std::printf("bench failed\n");
    return 1;
  }

  std::printf("%-10s %10s %8s %8s %8s %8s %8s\n", "mode", "time[s]", "peak",
              "fnal", "cern", "anl", "defer");
  const auto row = [](const char* mode, const RunResult& r) {
    const auto share = [&](const char* host) {
      const auto it = r.by_source.find(host);
      return it == r.by_source.end() ? 0LL : static_cast<long long>(it->second);
    };
    std::printf("%-10s %10.1f %8d %8lld %8lld %8lld %8lld\n", mode, r.seconds,
                r.peak_active, share("fnal"), share("cern"), share("anl"),
                static_cast<long long>(r.busy_deferrals));
  };
  row("serial", serial);
  row("queued", queued);

  const double speedup = serial.seconds / queued.seconds;
  const auto fast_it = queued.by_source.find("fnal");
  const double fast_share =
      fast_it == queued.by_source.end()
          ? 0.0
          : static_cast<double>(fast_it->second) /
                static_cast<double>(queued.completed);
  std::printf("\nspeedup: %.2fx   fast-source share (queued): %.0f%%\n",
              speedup, 100.0 * fast_share);
  report.add({{"files", kFiles},
              {"file_mib", static_cast<long long>(kFileSize / kMiB)},
              {"serial_seconds", serial.seconds},
              {"queued_seconds", queued.seconds},
              {"speedup", speedup},
              {"fast_share", fast_share}});

  const DeepQueueResult deep = run_deep_queue();
  if (deep.wall_seconds < 0) {
    std::printf("deep_queue failed\n");
    return 1;
  }
  report.add({{"name", "deep_queue"},
              {"files", kDeepQueueFiles},
              {"operations", static_cast<long long>(deep.completed +
                                                    deep.busy_deferrals)},
              {"wall_seconds", deep.wall_seconds},
              {"busy_deferrals", static_cast<long long>(deep.busy_deferrals)},
              {"replicate_calls", static_cast<long long>(deep.replicate_calls)}});
  return 0;
}
