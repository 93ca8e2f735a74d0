// Windowed time series over registry metrics: the state a heartbeat tick
// updates and a rollup record reads.
//
// Three per-series accumulators keyed by metric name:
//   counters    cumulative total, last tick's delta, and a sliding window of
//               per-tick deltas (RateWindow) for rate-per-window readouts;
//   gauges      latest sample plus RunningStats over every tick (campaign
//               mean/max of queue depths and link utilizations);
//   histograms  cumulative moments/buckets plus a ring of per-tick bucket
//               deltas (WindowedHistogram) whose merge yields windowed
//               p50/p95/p99 without retaining samples.
//
// One update path: add_registry() + tick(). A tick re-reads raw metric
// pointers cached per registry ("the plan") with zero lookups or
// allocations. The plan rebuilds whenever a registry's generation() moves,
// so metrics registered between ticks and registries cleared and reused
// are picked up (counter deltas clamp at 0 on a reset, so rates never go
// negative).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"

namespace gdmp::obs {

/// Nearest-rank percentile over fixed buckets: returns the inclusive upper
/// bound of the bucket holding rank ceil(q * count), or `overflow_value`
/// (the observed max) when the rank lands in the overflow bucket. 0 when
/// the histogram is empty.
double histogram_percentile(const std::vector<double>& bounds,
                            const std::vector<std::int64_t>& bucket_counts,
                            double q, double overflow_value) noexcept;

/// Formats a double the way the metrics JSON exporter does ("%.6g") so
/// rollup records and metric snapshots round-trip identically.
std::string format_number(double v);

/// Ring of the last `capacity` per-tick counter deltas with an O(1)
/// maintained sum: rate-per-window = window_sum / (filled * period).
class RateWindow {
 public:
  explicit RateWindow(int capacity = 10);

  void push(std::int64_t delta) noexcept;

  std::int64_t window_sum() const noexcept { return sum_; }
  /// Ticks currently in the window (saturates at capacity).
  int filled() const noexcept { return filled_; }
  int capacity() const noexcept { return static_cast<int>(ring_.size()); }

 private:
  std::vector<std::int64_t> ring_;
  int head_ = 0;
  int filled_ = 0;
  std::int64_t sum_ = 0;
};

/// Ring of per-tick histogram bucket deltas with an incrementally merged
/// window histogram: pushing a tick adds its buckets and evicts the
/// oldest, so windowed percentiles cost one bucket scan, never a re-merge.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(int capacity = 10);

  /// One tick's contribution: bucket deltas (fixed layout per series),
  /// sample-count delta and sum delta.
  void push(const std::vector<std::int64_t>& bucket_deltas,
            std::int64_t count_delta, double sum_delta);

  std::int64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  const std::vector<std::int64_t>& merged_buckets() const noexcept {
    return merged_;
  }
  /// Windowed percentile; `overflow_value` caps the overflow bucket (the
  /// caller passes the cumulative max — the window does not retain one).
  double percentile(const std::vector<double>& bounds, double q,
                    double overflow_value) const noexcept {
    return histogram_percentile(bounds, merged_, q, overflow_value);
  }

 private:
  struct Slot {
    std::vector<std::int64_t> buckets;
    std::int64_t count = 0;
    double sum = 0;
  };

  std::vector<Slot> ring_;
  std::vector<std::int64_t> merged_;
  int head_ = 0;
  int filled_ = 0;
  std::int64_t count_ = 0;
  double sum_ = 0;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(int window_ticks = 10);

  struct CounterSeries {
    std::int64_t total = 0;  // cumulative as of the last tick
    std::int64_t delta = 0;  // last tick's increment (>= 0; resets clamp)
    RateWindow window;

    explicit CounterSeries(int capacity) : window(capacity) {}
  };

  struct GaugeSeries {
    double value = 0;    // latest sample
    RunningStats stats;  // over every tick (campaign mean/max)
  };

  struct HistSeries {
    std::int64_t total_count = 0;
    std::int64_t delta_count = 0;  // last tick's sample count
    double total_sum = 0;
    double min = 0, max = 0;  // cumulative (a window max is not retained)
    std::vector<double> bounds;
    std::vector<std::int64_t> total_buckets;
    WindowedHistogram window;

    explicit HistSeries(int capacity) : window(capacity) {}
  };

  /// Registers a source registry for tick(). Order matters only for
  /// first-wins on (unexpected) duplicate metric names.
  void add_registry(const MetricsRegistry* registry);

  /// One heartbeat tick: pulls every planned metric straight through its
  /// cached pointer; the plan rebuilds first if any source registry's
  /// generation() changed. Series no registry holds any more keep their
  /// state; counters whose total went backwards (a registry was cleared
  /// and reused) record a 0 delta and re-anchor. Source registries must
  /// outlive the store.
  void tick();

  std::uint64_t ticks() const noexcept { return ticks_; }
  int window_ticks() const noexcept { return window_ticks_; }
  /// Ticks the window currently spans (saturates at window_ticks).
  int window_filled() const noexcept {
    return ticks_ < static_cast<std::uint64_t>(window_ticks_)
               ? static_cast<int>(ticks_)
               : window_ticks_;
  }

  const std::map<std::string, CounterSeries, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  const std::map<std::string, GaugeSeries, std::less<>>& gauges()
      const noexcept {
    return gauges_;
  }
  const std::map<std::string, HistSeries, std::less<>>& hists()
      const noexcept {
    return hists_;
  }

 private:
  struct PlanEntry {
    MetricKind kind = MetricKind::kCounter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    CounterSeries* counter_series = nullptr;
    GaugeSeries* gauge_series = nullptr;
    HistSeries* hist_series = nullptr;
  };

  struct Source {
    const MetricsRegistry* registry = nullptr;
    std::uint64_t planned_generation = 0;
  };

  void rebuild_plan();
  void apply_counter(CounterSeries& series, std::int64_t total);
  void apply_gauge(GaugeSeries& series, double value);
  void apply_hist(HistSeries& series, std::int64_t count, double sum,
                  double min, double max, const std::vector<double>& bounds,
                  const std::vector<std::int64_t>& buckets);

  int window_ticks_;
  std::uint64_t ticks_ = 0;

  std::map<std::string, CounterSeries, std::less<>> counters_;
  std::map<std::string, GaugeSeries, std::less<>> gauges_;
  std::map<std::string, HistSeries, std::less<>> hists_;

  std::vector<Source> sources_;
  std::vector<PlanEntry> plan_;
  bool plan_dirty_ = false;  // set by add_registry; cleared by rebuild
  std::vector<std::int64_t> bucket_scratch_;  // per-tick bucket deltas
};

}  // namespace gdmp::obs
