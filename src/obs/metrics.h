// Metrics registry: named counters, gauges and histograms.
//
// One registry per testbed Site (labelled scope "site.<name>"). Components
// keep their counts in their own fields and expose them from set_metrics():
// a counter bound by MetricsScope::expose reads an int64 the component
// increments, and a gauge bound by expose_gauge calls a function of current
// state, so a registry value cannot drift from the field it names. Values
// no component keeps, or that are defined by sampling, are pushed through
// counter()/gauge()/histogram(). A detached scope registers nothing.
//
// Lifetime: the registry points into the components that exposed into it,
// so their storage must outlive every read of the registry (DESIGN.md §5b).
//
// Names are hierarchical dotted paths ("site.cern.gridftp.bytes_sent").
// Snapshots export to JSON and to a flat text dump, and support delta
// against an earlier snapshot (counters/histograms subtract, gauges keep
// the latest value).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace gdmp::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotonic event/byte count: its own add()ed total, or an exposed
/// total it reads where the component keeps it.
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept { value_ += n; }
  std::int64_t value() const noexcept {
    return source_ != nullptr ? *source_ : value_;
  }

 private:
  friend class MetricsRegistry;
  std::int64_t value_ = 0;
  const std::int64_t* source_ = nullptr;
};

/// Level (queue depth, bytes used, in-flight transfers): last write wins,
/// or an exposed function computes it on every read.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return read_ ? read_() : value_; }

 private:
  friend class MetricsRegistry;
  double value_ = 0;
  std::function<double()> read_;
};

/// Fixed-bucket histogram plus streaming moments (reuses RunningStats).
/// `bounds` are inclusive upper bounds; one overflow bucket is implicit.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  const std::vector<std::int64_t>& bucket_counts() const noexcept {
    return counts_;
  }
  const RunningStats& stats() const noexcept { return stats_; }

 private:
  std::vector<double> bounds_;        // sorted upper bounds
  std::vector<std::int64_t> counts_;  // bounds_.size() + 1 (overflow last)
  RunningStats stats_;
};

/// Default histogram bounds: decade-ish spread that suits both Mbit/s
/// throughputs and second-scale latencies.
std::vector<double> default_histogram_bounds();

/// Point-in-time copy of every metric, detached from the registry.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::int64_t counter = 0;                // kCounter
    double gauge = 0;                        // kGauge
    std::int64_t count = 0;                  // kHistogram: sample count
    double sum = 0, min = 0, max = 0;        // kHistogram moments
    std::vector<double> bounds;              // kHistogram
    std::vector<std::int64_t> bucket_counts; // kHistogram
  };

  std::vector<Entry> entries;  // sorted by name

  /// Counters and histogram counts subtract (`this` minus `earlier`);
  /// gauges keep this snapshot's value. Entries absent from `earlier`
  /// pass through unchanged.
  MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;

  /// One JSON object: {"name": {"kind": ..., ...}, ...}.
  std::string to_json() const;

  /// Flat text, one `name value` line per metric (histograms: count/mean/
  /// min/max plus buckets).
  std::string dump() const;
};

class MetricsScope;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. A name registered under a different kind is an
  /// instrumentation bug: it is logged through the Logger (never a silent
  /// drop) and a detached scratch metric is returned so callers stay safe.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  /// Finds or creates a counter whose value() then reads `*total`, or a
  /// gauge whose value() then returns `read()`. A kind clash is logged the
  /// same way and leaves the existing metric alone.
  void expose(std::string_view name, const std::int64_t* total);
  void expose_gauge(std::string_view name, std::function<double()> read);

  /// A scope whose metric names are prefixed with `prefix` + ".".
  MetricsScope scope(std::string prefix);

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }
  std::string dump() const { return snapshot().dump(); }

  /// Name-ordered visitation without snapshot allocation; exactly one of
  /// the metric pointers is non-null per call (the one matching `kind`).
  /// The heartbeat fast path (obs/timeseries.h) resolves its pointer plan
  /// through this.
  using Visitor = std::function<void(const std::string& name, MetricKind kind,
                                     const Counter* counter,
                                     const Gauge* gauge,
                                     const Histogram* histogram)>;
  void visit(const Visitor& fn) const;

  /// Monotonic structure version: bumped when a metric is created and when
  /// the registry is cleared, so pointer-caching consumers know when their
  /// cached Counter*/Gauge*/Histogram* must be re-resolved.
  std::uint64_t generation() const noexcept { return generation_; }

  std::size_t size() const noexcept { return metrics_.size(); }
  void clear();

 private:
  struct Slot {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot* find_or_create(std::string_view name, MetricKind kind);

  std::map<std::string, Slot, std::less<>> metrics_;
  std::uint64_t generation_ = 0;
  // Fallbacks for kind-mismatch registrations (kept out of snapshots).
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  std::unique_ptr<Histogram> scratch_histogram_;
};

/// A (registry, prefix) pair. Copyable; a default-constructed scope is
/// detached: its accessors return nullptr and its expose calls do nothing.
class MetricsScope {
 public:
  MetricsScope() = default;

  bool attached() const noexcept { return registry_ != nullptr; }

  Counter* counter(std::string_view name) const;
  Gauge* gauge(std::string_view name) const;
  Histogram* histogram(std::string_view name,
                       std::vector<double> bounds = {}) const;

  /// Registers prefix.name as a counter reading `*total` (a count the
  /// caller already keeps) or a gauge computed by `read`. The storage
  /// must outlive every read of the registry.
  void expose(std::string_view name, const std::int64_t* total) const;
  void expose_gauge(std::string_view name,
                    std::function<double()> read) const;

  /// Child scope: prefix + "." + suffix.
  MetricsScope scope(std::string_view suffix) const;

  const std::string& prefix() const noexcept { return prefix_; }
  MetricsRegistry* registry() const noexcept { return registry_; }

 private:
  friend class MetricsRegistry;
  MetricsScope(MetricsRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  std::string full_name(std::string_view name) const;

  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
};

/// Escapes a string for embedding in JSON output (shared by the metrics
/// and trace exporters).
std::string json_escape(std::string_view s);

}  // namespace gdmp::obs
