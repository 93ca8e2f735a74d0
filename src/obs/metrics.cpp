#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace gdmp::obs {

namespace {

const char* kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_histogram_bounds();
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) noexcept {
  stats_.add(x);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
}

std::vector<double> default_histogram_bounds() {
  return {0.001, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000};
}

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry::Slot* MetricsRegistry::find_or_create(std::string_view name,
                                                       MetricKind kind) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind) {
      GDMP_ERROR("obs.metrics", "metric '", std::string(name),
                 "' already registered as ", kind_name(it->second.kind),
                 ", requested as ", kind_name(kind),
                 "; the existing metric is left alone");
      return nullptr;
    }
    return &it->second;
  }
  Slot slot;
  slot.kind = kind;
  it = metrics_.emplace(std::string(name), std::move(slot)).first;
  ++generation_;
  return &it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Slot* slot = find_or_create(name, MetricKind::kCounter);
  if (slot == nullptr) return scratch_counter_;
  if (!slot->counter) slot->counter = std::make_unique<Counter>();
  return *slot->counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Slot* slot = find_or_create(name, MetricKind::kGauge);
  if (slot == nullptr) return scratch_gauge_;
  if (!slot->gauge) slot->gauge = std::make_unique<Gauge>();
  return *slot->gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  Slot* slot = find_or_create(name, MetricKind::kHistogram);
  if (slot == nullptr) {
    if (!scratch_histogram_) {
      scratch_histogram_ = std::make_unique<Histogram>(std::move(bounds));
    }
    return *scratch_histogram_;
  }
  if (!slot->histogram) {
    slot->histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot->histogram;
}

void MetricsRegistry::expose(std::string_view name, const std::int64_t* total) {
  Slot* slot = find_or_create(name, MetricKind::kCounter);
  if (slot == nullptr) return;
  if (!slot->counter) slot->counter = std::make_unique<Counter>();
  slot->counter->source_ = total;
}

void MetricsRegistry::expose_gauge(std::string_view name,
                                   std::function<double()> read) {
  Slot* slot = find_or_create(name, MetricKind::kGauge);
  if (slot == nullptr) return;
  if (!slot->gauge) slot->gauge = std::make_unique<Gauge>();
  slot->gauge->read_ = std::move(read);
}

MetricsScope MetricsRegistry::scope(std::string prefix) {
  return MetricsScope(this, std::move(prefix));
}

void MetricsRegistry::clear() {
  metrics_.clear();
  ++generation_;
}

void MetricsRegistry::visit(const Visitor& fn) const {
  for (const auto& [name, slot] : metrics_) {
    fn(name, slot.kind, slot.counter.get(), slot.gauge.get(),
       slot.histogram.get());
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.entries.reserve(metrics_.size());
  for (const auto& [name, slot] : metrics_) {
    MetricsSnapshot::Entry entry;
    entry.name = name;
    entry.kind = slot.kind;
    switch (slot.kind) {
      case MetricKind::kCounter:
        entry.counter = slot.counter ? slot.counter->value() : 0;
        break;
      case MetricKind::kGauge:
        entry.gauge = slot.gauge ? slot.gauge->value() : 0;
        break;
      case MetricKind::kHistogram:
        if (slot.histogram) {
          const RunningStats& stats = slot.histogram->stats();
          entry.count = static_cast<std::int64_t>(stats.count());
          entry.sum = stats.mean() * static_cast<double>(stats.count());
          entry.min = stats.min();
          entry.max = stats.max();
          entry.bounds = slot.histogram->bounds();
          entry.bucket_counts = slot.histogram->bucket_counts();
        }
        break;
    }
    snap.entries.push_back(std::move(entry));
  }
  return snap;
}

// ------------------------------------------------------------ MetricsScope

std::string MetricsScope::full_name(std::string_view name) const {
  if (prefix_.empty()) return std::string(name);
  std::string full;
  full.reserve(prefix_.size() + 1 + name.size());
  full += prefix_;
  full += '.';
  full += name;
  return full;
}

Counter* MetricsScope::counter(std::string_view name) const {
  if (registry_ == nullptr) return nullptr;
  return &registry_->counter(full_name(name));
}

Gauge* MetricsScope::gauge(std::string_view name) const {
  if (registry_ == nullptr) return nullptr;
  return &registry_->gauge(full_name(name));
}

Histogram* MetricsScope::histogram(std::string_view name,
                                   std::vector<double> bounds) const {
  if (registry_ == nullptr) return nullptr;
  return &registry_->histogram(full_name(name), std::move(bounds));
}

void MetricsScope::expose(std::string_view name,
                          const std::int64_t* total) const {
  if (registry_ != nullptr) registry_->expose(full_name(name), total);
}

void MetricsScope::expose_gauge(std::string_view name,
                                std::function<double()> read) const {
  if (registry_ != nullptr) {
    registry_->expose_gauge(full_name(name), std::move(read));
  }
}

MetricsScope MetricsScope::scope(std::string_view suffix) const {
  if (registry_ == nullptr) return {};
  return MetricsScope(registry_, full_name(suffix));
}

// --------------------------------------------------------- MetricsSnapshot

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& earlier) const {
  std::map<std::string_view, const Entry*> base;
  for (const Entry& entry : earlier.entries) base[entry.name] = &entry;

  MetricsSnapshot out;
  out.entries.reserve(entries.size());
  for (const Entry& entry : entries) {
    Entry d = entry;
    const auto it = base.find(entry.name);
    if (it != base.end() && it->second->kind == entry.kind) {
      const Entry& before = *it->second;
      switch (entry.kind) {
        case MetricKind::kCounter:
          d.counter -= before.counter;
          break;
        case MetricKind::kGauge:
          break;  // latest value wins
        case MetricKind::kHistogram:
          d.count -= before.count;
          d.sum -= before.sum;
          if (d.bucket_counts.size() == before.bucket_counts.size()) {
            for (std::size_t i = 0; i < d.bucket_counts.size(); ++i) {
              d.bucket_counts[i] -= before.bucket_counts[i];
            }
          }
          break;
      }
    }
    out.entries.push_back(std::move(d));
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const Entry& entry : entries) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(entry.name) + "\":{\"kind\":\"";
    out += kind_name(entry.kind);
    out += "\"";
    switch (entry.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":" + std::to_string(entry.counter);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + format_double(entry.gauge);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":" + std::to_string(entry.count);
        out += ",\"sum\":" + format_double(entry.sum);
        out += ",\"min\":" + format_double(entry.min);
        out += ",\"max\":" + format_double(entry.max);
        out += ",\"bounds\":[";
        for (std::size_t i = 0; i < entry.bounds.size(); ++i) {
          if (i) out += ",";
          out += format_double(entry.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (std::size_t i = 0; i < entry.bucket_counts.size(); ++i) {
          if (i) out += ",";
          out += std::to_string(entry.bucket_counts[i]);
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::dump() const {
  std::ostringstream os;
  for (const Entry& entry : entries) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        os << entry.name << " " << entry.counter << "\n";
        break;
      case MetricKind::kGauge:
        os << entry.name << " " << format_double(entry.gauge) << "\n";
        break;
      case MetricKind::kHistogram: {
        const double mean =
            entry.count > 0 ? entry.sum / static_cast<double>(entry.count) : 0;
        os << entry.name << " count=" << entry.count
           << " mean=" << format_double(mean)
           << " min=" << format_double(entry.count ? entry.min : 0)
           << " max=" << format_double(entry.count ? entry.max : 0) << "\n";
        break;
      }
    }
  }
  return os.str();
}

}  // namespace gdmp::obs
