// HeartbeatReporter: sim-time rollups over one or more metric registries.
//
// Every `period` of simulated time (a PeriodicTimer tick, marked as a
// daemon event so monitoring never keeps Simulator::run() alive) the
// reporter:
//   1. runs the registered samplers (caller-driven gauges: link
//      utilization under either transfer model — obs cannot include
//      net/flow, so the wiring lives in testbed::Grid);
//   2. pulls every metric of every registered registry through the
//      TimeSeriesStore's pointer plan (no snapshot, no allocation);
//   3. evaluates the watchdog and bumps "obs.alert.<rule>" counters in the
//      reporter's own registry (visible from the *next* tick's rollup) and
//      emits an "obs.alert" trace span when the tracer is on;
//   4. appends one JSONL rollup record to GDMP_ROLLUP_FILE (or the
//      configured path/sink — see DESIGN.md §5g for the record schema).
// finish() appends the campaign record: per-site/per-link totals and the
// transfer economics (bytes moved, retries, dead-letters, transfer-time
// percentiles).
//
// Everything emitted is a pure function of simulated state, so a rollup
// stream byte-compares across same-seed runs — tools/determinism_check
// does exactly that when GDMP_ROLLUP_FILE is honoured.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"
#include "sim/simulator.h"

namespace gdmp::obs {

struct HeartbeatConfig {
  SimDuration period = kSecond;
  int window_ticks = 10;
  /// Rollup destination; empty consults $GDMP_ROLLUP_FILE at construction.
  /// Empty both ways means no stream (series and watchdog still run).
  std::string rollup_path;
};

class HeartbeatReporter {
 public:
  using Sink = std::function<void(const std::string& line)>;
  using Sampler = std::function<void()>;

  HeartbeatReporter(sim::Simulator& simulator, HeartbeatConfig config = {});
  ~HeartbeatReporter();

  HeartbeatReporter(const HeartbeatReporter&) = delete;
  HeartbeatReporter& operator=(const HeartbeatReporter&) = delete;

  /// Registers a source registry; must outlive the reporter. Call before
  /// the first tick.
  void add_registry(const MetricsRegistry* registry);
  /// Caller-driven gauge refresh, run at the top of every tick in add
  /// order (e.g. Grid's uplink-utilization sampler).
  void add_sampler(Sampler sampler);
  /// Overrides the file destination with an in-memory sink (tests, bench).
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  Watchdog& watchdog() noexcept { return watchdog_; }

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }
  /// One tick, outside the timer (tests and end-of-run flushes).
  void tick();
  /// Appends the campaign record and flushes. Idempotent; the destructor
  /// calls it if any rollup was emitted.
  void finish();

  std::uint64_t ticks() const noexcept { return store_.ticks(); }
  std::int64_t alerts_total() const noexcept { return alerts_total_; }
  const TimeSeriesStore& series() const noexcept { return store_; }
  const HeartbeatConfig& config() const noexcept { return config_; }

  /// The campaign record (also what finish() appends), for programmatic
  /// summaries without re-parsing the stream.
  std::string campaign_json() const;

 private:
  void write_line(const std::string& line);
  /// Renders into line_buffer_ (capacity reused across ticks — rendering
  /// every tick must not allocate once the stream shape settles).
  const std::string& render_rollup(const std::vector<Alert>& alerts);

  sim::Simulator& simulator_;
  HeartbeatConfig config_;
  // Own registry ("obs.heartbeat.*", "obs.alert.*"), merged into every
  // rollup like any registered source. First: the store's plan caches
  // pointers into it.
  MetricsRegistry self_metrics_;
  Counter* ticks_counter_ = nullptr;
  TimeSeriesStore store_;
  Watchdog watchdog_;
  std::vector<Sampler> samplers_;
  Sink sink_;
  std::string line_buffer_;
  std::FILE* file_ = nullptr;  // opened lazily on the first write
  bool emitted_ = false;
  bool finished_ = false;
  std::int64_t alerts_total_ = 0;
  sim::PeriodicTimer timer_;
};

}  // namespace gdmp::obs
