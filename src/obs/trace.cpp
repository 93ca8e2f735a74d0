#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace gdmp::obs {

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

SpanId Tracer::begin(std::string_view name, SpanId parent) {
  if (!enabled()) return {};
  Span span;
  span.id = SpanId{next_id_++};
  if (parent.value == kRootSentinel) {
    span.parent = {};
  } else if (parent.valid()) {
    span.parent = parent;
  } else {
    span.parent = current_;
  }
  span.name.assign(name);
  span.start = clock_();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(SpanId id) {
  if (!id.valid()) return;
  Span* span = find_mutable(id);
  if (span == nullptr || !span->open) {
    ++orphan_ends_;
    GDMP_WARN("obs.trace", "end() on ",
              span == nullptr ? "unknown" : "already-ended", " span id ",
              id.value);
    return;
  }
  span->end = clock_ ? clock_() : span->start;
  span->open = false;
}

void Tracer::attr(SpanId id, std::string_view key, std::string_view value) {
  if (!id.valid()) return;
  Span* span = find_mutable(id);
  if (span == nullptr) {
    GDMP_WARN("obs.trace", "attr() on unknown span id ", id.value);
    return;
  }
  span->attrs.emplace_back(std::string(key), std::string(value));
}

void Tracer::attr(SpanId id, std::string_view key, std::int64_t value) {
  attr(id, key, std::string_view(std::to_string(value)));
}

const Span* Tracer::find(SpanId id) const noexcept {
  // Ids are handed out sequentially from 1 and spans_ only grows until
  // clear() restarts both, so span `id` lives at index id - 1.
  if (id.value == 0 || id.value > spans_.size()) return nullptr;
  return &spans_[id.value - 1];
}

Span* Tracer::find_mutable(SpanId id) noexcept {
  return const_cast<Span*>(std::as_const(*this).find(id));
}

std::size_t Tracer::open_spans() const noexcept {
  std::size_t n = 0;
  for (const Span& span : spans_) {
    if (span.open) ++n;
  }
  return n;
}

std::string Tracer::to_chrome_trace() const {
  const SimTime now = clock_ ? clock_() : 0;

  // Greedy track assignment so overlapping spans land on a tid where they
  // nest properly: sort by start, keep a per-track stack of active interval
  // ends, place each span on the first track whose innermost active
  // interval contains it (or which is idle).
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return spans_[a].start < spans_[b].start;
                   });

  std::vector<std::vector<SimTime>> tracks;  // stack of active end times
  std::vector<int> tid_of(spans_.size(), 0);
  for (const std::size_t idx : order) {
    const Span& span = spans_[idx];
    const SimTime end = span.open ? std::max(now, span.start) : span.end;
    int tid = -1;
    for (std::size_t t = 0; t < tracks.size(); ++t) {
      auto& stack = tracks[t];
      while (!stack.empty() && stack.back() <= span.start) stack.pop_back();
      if (stack.empty() || stack.back() >= end) {
        tid = static_cast<int>(t);
        break;
      }
    }
    if (tid < 0) {
      tid = static_cast<int>(tracks.size());
      tracks.emplace_back();
    }
    tracks[static_cast<std::size_t>(tid)].push_back(end);
    tid_of[idx] = tid;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::size_t idx : order) {
    const Span& span = spans_[idx];
    const SimTime end = span.open ? std::max(now, span.start) : span.end;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(span.name) + "\",\"ph\":\"X\"";
    // trace_event timestamps are microseconds; keep sub-µs spans visible.
    const double ts = static_cast<double>(span.start) / 1e3;
    const double dur =
        std::max(static_cast<double>(end - span.start) / 1e3, 0.001);
    out += ",\"ts\":" + std::to_string(ts);
    out += ",\"dur\":" + std::to_string(dur);
    out += ",\"pid\":1,\"tid\":" + std::to_string(tid_of[idx]);
    out += ",\"args\":{\"span_id\":" + std::to_string(span.id.value);
    if (span.parent.valid()) {
      out += ",\"parent_id\":" + std::to_string(span.parent.value);
    }
    if (span.open) out += ",\"open\":true";
    for (const auto& [key, value] : span.attrs) {
      out += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    GDMP_ERROR("obs.trace", "cannot open trace file '", path, "' for write");
    return false;
  }
  file << to_chrome_trace();
  file.flush();
  if (!file) {
    GDMP_ERROR("obs.trace", "short write to trace file '", path, "'");
    return false;
  }
  return true;
}

void Tracer::clear() {
  spans_.clear();
  current_ = {};
  next_id_ = 1;
  orphan_ends_ = 0;
}

}  // namespace gdmp::obs
