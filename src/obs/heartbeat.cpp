#include "obs/heartbeat.h"

#include <cstdlib>
#include <map>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace gdmp::obs {
namespace {

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

/// In-place formatting helpers: the rollup renderer runs every heartbeat
/// tick, so it appends into a reused buffer instead of composing
/// temporaries (json_escape/format_number each allocate a fresh string).
void append_number(std::string& out, double v) {
  char buf[64];
  out.append(buf, static_cast<std::size_t>(
                      std::snprintf(buf, sizeof(buf), "%.6g", v)));
}

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  out.append(buf, static_cast<std::size_t>(std::snprintf(
                      buf, sizeof(buf), "%lld", static_cast<long long>(v))));
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      out += json_escape(s);  // slow path: metric names rarely need it
      return;
    }
  }
  out += s;
}

/// Campaign grouping prefixes (per-site and per-link totals).
constexpr std::string_view kSitePrefix = "site.";
constexpr std::string_view kLinkPrefix = "grid.uplink.";

/// Splits "<prefix><group>.<key>" into (group, key); false when `name`
/// lacks the prefix or a key after the group.
bool split_grouped(std::string_view name, std::string_view prefix,
                   std::string_view& group, std::string_view& key) {
  if (name.size() <= prefix.size() ||
      name.substr(0, prefix.size()) != prefix) {
    return false;
  }
  const std::string_view rest = name.substr(prefix.size());
  const std::size_t dot = rest.find('.');
  if (dot == std::string_view::npos || dot + 1 >= rest.size()) return false;
  group = rest.substr(0, dot);
  key = rest.substr(dot + 1);
  return true;
}

}  // namespace

HeartbeatReporter::HeartbeatReporter(sim::Simulator& simulator,
                                     HeartbeatConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      store_(config_.window_ticks),
      timer_(simulator, config_.period > 0 ? config_.period : kSecond,
             [this] { tick(); }) {
  if (config_.period <= 0) config_.period = kSecond;
  if (config_.rollup_path.empty()) {
    if (const char* path = std::getenv("GDMP_ROLLUP_FILE")) {
      config_.rollup_path = path;
    }
  }
  ticks_counter_ = &self_metrics_.counter("obs.heartbeat.ticks");
  store_.add_registry(&self_metrics_);
  // A monitoring tick must never keep the simulation alive: run() stops
  // when only daemon events remain.
  timer_.set_daemon(true);
}

HeartbeatReporter::~HeartbeatReporter() {
  if (emitted_ && !finished_) {
    finish();
  } else if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void HeartbeatReporter::add_registry(const MetricsRegistry* registry) {
  store_.add_registry(registry);
}

void HeartbeatReporter::add_sampler(Sampler sampler) {
  samplers_.push_back(std::move(sampler));
}

void HeartbeatReporter::tick() {
  for (const Sampler& sampler : samplers_) sampler();
  // Bumped before the pull so tick N's record reads obs.heartbeat.ticks=N.
  ticks_counter_->add();
  store_.tick();

  const std::vector<Alert> alerts = watchdog_.evaluate(store_);
  for (const Alert& alert : alerts) {
    ++alerts_total_;
    // Counted in the reporter's own registry, so the alert history rides
    // the rollup stream itself (visible from the next tick's record).
    // gdmp-lint: hot-alloc — alert path only; a fired alert is episodic, not per tick
    self_metrics_.counter("obs.alert." + alert.rule).add();
    GDMP_WARN("obs.watchdog", alert.rule, ": ", alert.metric, " = ",
              format_number(alert.value), " (threshold ",
              format_number(alert.threshold), ")");
    Tracer& tracer = Tracer::global();
    if (tracer.enabled()) {
      const SpanId span = tracer.begin("obs.alert", Tracer::root_parent());
      tracer.attr(span, "rule", alert.rule);
      tracer.attr(span, "metric", alert.metric);
      tracer.attr(span, "value", format_number(alert.value));
      tracer.end(span);
    }
  }

  if (sink_ || file_ != nullptr || !config_.rollup_path.empty()) {
    write_line(render_rollup(alerts));
  }
}

const std::string& HeartbeatReporter::render_rollup(
    const std::vector<Alert>& alerts) {
  const double period_s = to_seconds(config_.period);
  const double window_s =
      period_s * static_cast<double>(store_.window_filled());
  std::string& out = line_buffer_;
  out.clear();  // keeps capacity: steady-state rendering stays alloc-free
  out += "{\"type\":\"rollup\",\"v\":1,\"seq\":";
  append_int(out, static_cast<std::int64_t>(store_.ticks()));
  out += ",\"t\":";
  append_number(out, to_seconds(simulator_.now()));
  out += ",\"period_s\":";
  append_number(out, period_s);
  out += ",\"window_s\":";
  append_number(out, window_s);

  // Sparse stream: counters/histograms appear only on ticks they moved
  // (tick 1 carries every pre-existing total as its first delta); gauges
  // are levels and appear on every tick.
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, series] : store_.counters()) {
    if (series.delta == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_escaped(out, name);
    out += "\":{\"total\":";
    append_int(out, series.total);
    out += ",\"delta\":";
    append_int(out, series.delta);
    out += ",\"rate\":";
    append_number(out, static_cast<double>(series.delta) / period_s);
    out += ",\"wrate\":";
    append_number(
        out, window_s > 0
                 ? static_cast<double>(series.window.window_sum()) / window_s
                 : 0.0);
    out += "}";
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, series] : store_.gauges()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_escaped(out, name);
    out += "\":";
    append_number(out, series.value);
  }
  out += "},\"hists\":{";
  first = true;
  for (const auto& [name, series] : store_.hists()) {
    if (series.delta_count == 0) continue;
    if (!first) out += ",";
    first = false;
    const double mean =
        series.total_count > 0
            ? series.total_sum / static_cast<double>(series.total_count)
            : 0.0;
    out += "\"";
    append_escaped(out, name);
    out += "\":{\"count\":";
    append_int(out, series.total_count);
    out += ",\"delta\":";
    append_int(out, series.delta_count);
    out += ",\"mean\":";
    append_number(out, mean);
    for (const auto& [label, q] :
         {std::pair{",\"p50\":", 0.50}, std::pair{",\"p95\":", 0.95},
          std::pair{",\"p99\":", 0.99}}) {
      out += label;
      append_number(out, histogram_percentile(
                             series.bounds, series.total_buckets, q,
                             series.max));
    }
    out += ",\"wcount\":";
    append_int(out, series.window.count());
    out += ",\"wmean\":";
    append_number(out, series.window.mean());
    out += ",\"wp50\":";
    append_number(out, series.window.percentile(series.bounds, 0.50,
                                                series.max));
    out += ",\"wp95\":";
    append_number(out, series.window.percentile(series.bounds, 0.95,
                                                series.max));
    out += ",\"wp99\":";
    append_number(out, series.window.percentile(series.bounds, 0.99,
                                                series.max));
    out += "}";
  }
  out += "},\"alerts\":[";
  first = true;
  for (const Alert& alert : alerts) {
    if (!first) out += ",";
    first = false;
    out += "{\"rule\":\"";
    append_escaped(out, alert.rule);
    out += "\",\"metric\":\"";
    append_escaped(out, alert.metric);
    out += "\",\"value\":";
    append_number(out, alert.value);
    out += ",\"threshold\":";
    append_number(out, alert.threshold);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string HeartbeatReporter::campaign_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"type\":\"campaign\",\"v\":1,\"ticks\":";
  out += std::to_string(store_.ticks());
  out += ",\"duration_s\":";
  out += format_number(to_seconds(simulator_.now()));

  // Per-site counter totals ("site.<s>.<key>"); the name-ordered series
  // map keeps each site's block contiguous.
  out += ",\"sites\":{";
  std::string_view open_group;
  bool any_group = false;
  for (const auto& [name, series] : store_.counters()) {
    std::string_view group, key;
    if (!split_grouped(name, kSitePrefix, group, key)) continue;
    if (series.total == 0) continue;
    if (group != open_group) {
      if (!open_group.empty()) out += "},";
      out += "\"" + json_escape(group) + "\":{";
      open_group = group;
      any_group = true;
    } else {
      out += ",";
    }
    out += "\"" + json_escape(key) + "\":" + std::to_string(series.total);
  }
  if (any_group) out += "}";

  // Per-link totals plus utilization-over-ticks moments.
  out += "},\"links\":{";
  std::map<std::string, std::string, std::less<>> links;
  for (const auto& [name, series] : store_.counters()) {
    std::string_view group, key;
    if (!split_grouped(name, kLinkPrefix, group, key)) continue;
    if (series.total == 0) continue;
    std::string& fields = links[std::string(group)];
    if (!fields.empty()) fields += ",";
    fields += "\"" + json_escape(key) + "\":" + std::to_string(series.total);
  }
  for (const auto& [name, series] : store_.gauges()) {
    std::string_view group, key;
    if (!split_grouped(name, kLinkPrefix, group, key)) continue;
    if (key != "utilization") continue;
    std::string& fields = links[std::string(group)];
    if (!fields.empty()) fields += ",";
    fields += "\"util_mean\":" + format_number(series.stats.mean()) +
              ",\"util_max\":" + format_number(series.stats.max());
  }
  bool first = true;
  for (const auto& [link, fields] : links) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(link) + "\":{" + fields + "}";
  }

  // Transfer economics, summed across sites by suffix.
  std::int64_t bytes_moved = 0, retries = 0, dead_letters = 0;
  std::int64_t transfers_completed = 0, transfers_failed = 0;
  for (const auto& [name, series] : store_.counters()) {
    if (ends_with(name, ".sched.bytes_moved")) bytes_moved += series.total;
    if (ends_with(name, ".sched.retries")) retries += series.total;
    if (ends_with(name, ".sched.dead_lettered")) {
      dead_letters += series.total;
    }
    if (ends_with(name, ".transfer.completed")) {
      transfers_completed += series.total;
    }
    if (ends_with(name, ".transfer.failed")) {
      transfers_failed += series.total;
    }
  }
  // Transfer-time distribution: ".transfer.seconds" histograms merged
  // across sites (identical default bounds; mismatched layouts skipped).
  std::vector<double> merged_bounds;
  std::vector<std::int64_t> merged_buckets;
  std::int64_t merged_count = 0;
  double merged_sum = 0, merged_max = 0;
  for (const auto& [name, series] : store_.hists()) {
    if (!ends_with(name, ".transfer.seconds")) continue;
    if (series.total_count == 0) continue;
    if (merged_bounds.empty()) {
      merged_bounds = series.bounds;
      merged_buckets.assign(series.total_buckets.size(), 0);
    }
    if (series.total_buckets.size() != merged_buckets.size()) continue;
    for (std::size_t i = 0; i < merged_buckets.size(); ++i) {
      merged_buckets[i] += series.total_buckets[i];
    }
    merged_count += series.total_count;
    merged_sum += series.total_sum;
    if (series.max > merged_max) merged_max = series.max;
  }
  out += "},\"economics\":{\"bytes_moved\":" + std::to_string(bytes_moved) +
         ",\"retries\":" + std::to_string(retries) +
         ",\"dead_letters\":" + std::to_string(dead_letters) +
         ",\"transfers_completed\":" + std::to_string(transfers_completed) +
         ",\"transfers_failed\":" + std::to_string(transfers_failed);
  out += ",\"transfer_s_mean\":";
  out += format_number(
      merged_count > 0 ? merged_sum / static_cast<double>(merged_count) : 0.0);
  for (const auto& [label, q] :
       {std::pair{",\"transfer_s_p50\":", 0.50},
        std::pair{",\"transfer_s_p95\":", 0.95},
        std::pair{",\"transfer_s_p99\":", 0.99}}) {
    out += label;
    out += format_number(
        histogram_percentile(merged_bounds, merged_buckets, q, merged_max));
  }
  out += "},\"alerts_total\":" + std::to_string(alerts_total_) + "}";
  return out;
}

void HeartbeatReporter::finish() {
  if (finished_) return;
  finished_ = true;
  if (sink_ || file_ != nullptr || !config_.rollup_path.empty()) {
    write_line(campaign_json());
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void HeartbeatReporter::write_line(const std::string& line) {
  emitted_ = true;
  if (sink_) {
    sink_(line);
    return;
  }
  if (file_ == nullptr) {
    file_ = std::fopen(config_.rollup_path.c_str(), "w");
    if (file_ == nullptr) {
      GDMP_ERROR("obs.heartbeat",
                 "cannot open rollup file: ", config_.rollup_path);
      config_.rollup_path.clear();  // stop retrying every tick
      return;
    }
  }
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
}

}  // namespace gdmp::obs
