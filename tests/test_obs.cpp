// Tests for the telemetry subsystem: metrics registry semantics, snapshot
// export/delta, sim-time tracing spans (nesting, orphans, Chrome export),
// the transfer observer channel, and the end-to-end replication span chain
// through a two-site grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/channel.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sched/cost_selector.h"
#include "testbed/grid.h"

namespace gdmp::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramSemantics) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("a.events");
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42);
  // Same name -> same instance.
  EXPECT_EQ(&registry.counter("a.events"), &counter);

  Gauge& gauge = registry.gauge("a.depth");
  gauge.set(3.0);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);

  Histogram& histogram = registry.histogram("a.mbps", {1.0, 10.0, 100.0});
  histogram.observe(0.5);    // bucket 0 (<= 1)
  histogram.observe(5.0);    // bucket 1 (<= 10)
  histogram.observe(5000.0); // overflow bucket
  ASSERT_EQ(histogram.bucket_counts().size(), 4u);
  EXPECT_EQ(histogram.bucket_counts()[0], 1);
  EXPECT_EQ(histogram.bucket_counts()[1], 1);
  EXPECT_EQ(histogram.bucket_counts()[3], 1);
  EXPECT_EQ(histogram.stats().count(), 3);
  EXPECT_DOUBLE_EQ(histogram.stats().min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.stats().max(), 5000.0);
}

TEST(Metrics, KindMismatchHandsOutScratchNotCrash) {
  MetricsRegistry registry;
  registry.counter("x.thing").add(7);
  // Same name, different kind: logged and diverted to a scratch metric
  // that never reaches snapshots.
  Gauge& scratch = registry.gauge("x.thing");
  scratch.set(99.0);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  EXPECT_EQ(snapshot.entries[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snapshot.entries[0].counter, 7);
}

TEST(Metrics, ScopePrefixesAndDetachedScopeReturnsNull) {
  MetricsRegistry registry;
  const MetricsScope site = registry.scope("site.cern");
  const MetricsScope ftp = site.scope("gridftp");
  Counter* bytes = ftp.counter("bytes_sent");
  ASSERT_NE(bytes, nullptr);
  bytes->add(10);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  EXPECT_EQ(snapshot.entries[0].name, "site.cern.gridftp.bytes_sent");

  const MetricsScope detached;
  EXPECT_FALSE(detached.attached());
  EXPECT_EQ(detached.counter("anything"), nullptr);
  EXPECT_EQ(detached.gauge("anything"), nullptr);
  EXPECT_EQ(detached.histogram("anything"), nullptr);
  EXPECT_EQ(detached.scope("child").counter("x"), nullptr);
}

TEST(ExposedMetrics, DetachedScopeIgnoresExpose) {
  const MetricsScope detached;
  std::int64_t total = 3;
  bool read = false;
  detached.expose("events", &total);
  detached.expose_gauge("depth", [&read] {
    read = true;
    return 1.0;
  });
  detached.scope("child").expose("events", &total);
  EXPECT_FALSE(detached.attached());
  EXPECT_FALSE(read);
}

TEST(ExposedMetrics, SnapshotVisitAndTicksReadTheSourceLive) {
  MetricsRegistry registry;
  TimeSeriesStore store;
  store.add_registry(&registry);
  std::int64_t total = 5;
  registry.scope("a").expose("events", &total);
  store.tick();
  EXPECT_EQ(store.counters().at("a.events").delta, 5);

  total += 7;  // no add(): the registry reads the component's own field
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  EXPECT_EQ(snapshot.entries[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snapshot.entries[0].counter, 12);
  std::int64_t visited = -1;
  registry.visit([&visited](const std::string&, MetricKind,
                            const Counter* counter, const Gauge*,
                            const Histogram*) {
    if (counter != nullptr) visited = counter->value();
  });
  EXPECT_EQ(visited, 12);
  store.tick();
  EXPECT_EQ(store.counters().at("a.events").total, 12);
  EXPECT_EQ(store.counters().at("a.events").delta, 7);
}

TEST(ExposedMetrics, GaugeFunctionRunsOnEveryTick) {
  MetricsRegistry registry;
  TimeSeriesStore store;
  store.add_registry(&registry);
  int calls = 0;
  double depth = 2.0;
  registry.scope("q").expose_gauge("depth", [&calls, &depth] {
    ++calls;
    return depth;
  });
  store.tick();
  EXPECT_DOUBLE_EQ(store.gauges().at("q.depth").value, 2.0);
  depth = 5.0;
  store.tick();
  EXPECT_DOUBLE_EQ(store.gauges().at("q.depth").value, 5.0);
  EXPECT_EQ(calls, 2);
}

TEST(ExposedMetrics, KindClashIsLoggedAndKeepsTheExistingMetric) {
  Logger& logger = Logger::global();
  std::vector<std::string> lines;
  logger.set_sink(
      [&lines](LogLevel, std::string_view line) { lines.emplace_back(line); });
  logger.set_level(LogLevel::kError);

  MetricsRegistry registry;
  registry.counter("x.depth").add(7);
  registry.gauge("x.total").set(2.5);
  const MetricsScope scope = registry.scope("x");
  std::int64_t total = 99;
  scope.expose("total", &total);
  scope.expose_gauge("depth", [] { return 42.0; });

  logger.set_level(LogLevel::kOff);
  logger.set_sink(nullptr);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("'x.total' already registered as gauge"),
            std::string::npos);
  EXPECT_NE(lines[1].find("'x.depth' already registered as counter"),
            std::string::npos);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.entries.size(), 2u);
  EXPECT_EQ(snapshot.entries[0].name, "x.depth");
  EXPECT_EQ(snapshot.entries[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snapshot.entries[0].counter, 7);
  EXPECT_EQ(snapshot.entries[1].name, "x.total");
  EXPECT_EQ(snapshot.entries[1].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snapshot.entries[1].gauge, 2.5);
}

TEST(Metrics, SnapshotDeltaSubtractsCountersKeepsGauges) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c");
  Gauge& gauge = registry.gauge("g");
  Histogram& histogram = registry.histogram("h");
  counter.add(5);
  gauge.set(1.0);
  histogram.observe(2.0);
  const MetricsSnapshot before = registry.snapshot();
  counter.add(3);
  gauge.set(9.0);
  histogram.observe(4.0);
  const MetricsSnapshot delta = registry.snapshot().delta_since(before);
  std::map<std::string, MetricsSnapshot::Entry> by_name;
  for (const auto& entry : delta.entries) by_name[entry.name] = entry;
  EXPECT_EQ(by_name["c"].counter, 3);
  EXPECT_DOUBLE_EQ(by_name["g"].gauge, 9.0);
  EXPECT_EQ(by_name["h"].count, 1);
}

TEST(Metrics, JsonExportParsesBack) {
  MetricsRegistry registry;
  registry.counter("site.a.rpc.requests \"quoted\"").add(3);
  registry.gauge("site.a.pool.used").set(0.5);
  registry.histogram("site.a.mbps").observe(12.5);
  std::string error;
  const auto parsed = json_parse(registry.to_json(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  ASSERT_TRUE(parsed->is_object());
  const JsonValue* counter =
      parsed->get("site.a.rpc.requests \"quoted\"");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->get("value")->number, 3.0);
  const JsonValue* histogram = parsed->get("site.a.mbps");
  ASSERT_NE(histogram, nullptr);
  EXPECT_DOUBLE_EQ(histogram->get("count")->number, 1.0);

  const std::string dump = registry.dump();
  EXPECT_NE(dump.find("site.a.pool.used"), std::string::npos);
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_EQ(json_parse("{\"a\": ", &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(json_parse("[1, 2,]", &error), nullptr);
  EXPECT_EQ(json_parse("{} trailing", &error), nullptr);
  const auto ok = json_parse(R"({"a": [1, true, null, "s\n"]})", &error);
  ASSERT_NE(ok, nullptr) << error;
  EXPECT_EQ(ok->get("a")->array.size(), 4u);
}

// ---------------------------------------------------------------- tracing

class TracerTest : public ::testing::Test {
 protected:
  Tracer tracer_;
  SimTime now_ = 0;

  void SetUp() override {
    tracer_.set_clock([this] { return now_; });
    tracer_.enable(true);
  }
};

TEST_F(TracerTest, NestingExplicitAmbientAndRoot) {
  const SpanId root = tracer_.begin("rpc.request", Tracer::root_parent());
  {
    const CurrentSpanGuard guard(tracer_, root);
    now_ = 5 * kMillisecond;
    const SpanId child = tracer_.begin("sched.request");  // ambient parent
    const SpanId grandchild = tracer_.begin("gdmp.replicate", child);
    now_ = 9 * kMillisecond;
    tracer_.end(grandchild);
    tracer_.end(child);
  }
  now_ = 10 * kMillisecond;
  tracer_.end(root);

  ASSERT_EQ(tracer_.spans().size(), 3u);
  const Span* root_span = tracer_.find(root);
  ASSERT_NE(root_span, nullptr);
  EXPECT_FALSE(root_span->parent.valid());
  EXPECT_FALSE(root_span->open);
  EXPECT_EQ(root_span->start, 0);
  EXPECT_EQ(root_span->end, 10 * kMillisecond);
  const Span& child_span = tracer_.spans()[1];
  EXPECT_EQ(child_span.parent.value, root.value);
  const Span& grandchild_span = tracer_.spans()[2];
  EXPECT_EQ(grandchild_span.parent.value, child_span.id.value);
  EXPECT_EQ(tracer_.open_spans(), 0u);
}

TEST_F(TracerTest, DisabledTracerIsInert) {
  tracer_.enable(false);
  const SpanId span = tracer_.begin("nope");
  EXPECT_FALSE(span.valid());
  tracer_.attr(span, "k", "v");
  tracer_.end(span);  // no-op, not an orphan
  EXPECT_TRUE(tracer_.spans().empty());
  EXPECT_EQ(tracer_.orphan_ends(), 0);
}

TEST_F(TracerTest, OrphanEndsAreCountedNeverSilent) {
  const SpanId span = tracer_.begin("s");
  tracer_.end(span);
  tracer_.end(span);  // double end
  tracer_.end(SpanId{424242});  // unknown id
  EXPECT_EQ(tracer_.orphan_ends(), 2);
}

TEST_F(TracerTest, SpanLookupIsDirectAcrossManyOpenSpans) {
  // Span ids index the span table directly: end()/attr() reach the first
  // of 10^5 open spans, unknown ids and double ends still count as
  // orphans, and clear() restarts the ids.
  constexpr std::uint64_t kSpans = 100'000;
  const SpanId first = tracer_.begin("first", Tracer::root_parent());
  for (std::uint64_t i = 1; i < kSpans; ++i) {
    (void)tracer_.begin("open", Tracer::root_parent());
  }
  EXPECT_EQ(tracer_.open_spans(), kSpans);
  now_ = 7;
  tracer_.attr(first, "k", "v");
  tracer_.end(first);
  const Span* span = tracer_.find(first);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->name, "first");
  EXPECT_FALSE(span->open);
  EXPECT_EQ(span->end, 7);
  EXPECT_EQ(span->attrs.size(), 1u);
  EXPECT_EQ(tracer_.open_spans(), kSpans - 1);

  const SpanId unknown{kSpans + 1};
  tracer_.end(first);    // double end
  tracer_.end(unknown);  // one past the last id handed out
  tracer_.attr(unknown, "k", "v");
  EXPECT_EQ(tracer_.orphan_ends(), 2);
  EXPECT_EQ(tracer_.find(unknown), nullptr);
  EXPECT_EQ(tracer_.find(Tracer::root_parent()), nullptr);

  tracer_.clear();
  EXPECT_EQ(tracer_.find(first), nullptr);
  const SpanId again = tracer_.begin("again");
  EXPECT_EQ(again.value, 1u);
  ASSERT_NE(tracer_.find(again), nullptr);
  EXPECT_EQ(tracer_.find(again)->name, "again");
}

TEST_F(TracerTest, ChromeTraceExportIsWellFormed) {
  const SpanId a = tracer_.begin("outer", Tracer::root_parent());
  tracer_.attr(a, "lfn", "lfn://cms/x \"quoted\"");
  now_ = 2 * kMillisecond;
  const SpanId b = tracer_.begin("inner", a);
  tracer_.attr(b, "stripe", std::int64_t{3});
  now_ = 4 * kMillisecond;
  tracer_.end(b);
  now_ = 6 * kMillisecond;
  tracer_.end(a);
  const SpanId open = tracer_.begin("still.open", Tracer::root_parent());
  (void)open;

  std::string error;
  const auto parsed = json_parse(tracer_.to_chrome_trace(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  const JsonValue* events = parsed->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& event : events->array) {
    const JsonValue* name = event.get("name");
    if (name == nullptr) continue;
    if (name->string == "outer") outer = &event;
    if (name->string == "inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->get("ph")->string, "X");
  // sim ns -> trace µs.
  EXPECT_DOUBLE_EQ(outer->get("ts")->number, 0.0);
  EXPECT_DOUBLE_EQ(outer->get("dur")->number, 6000.0);
  EXPECT_DOUBLE_EQ(inner->get("ts")->number, 2000.0);
  // Parent/child ids ride in args for programmatic checks; roots omit
  // parent_id.
  EXPECT_EQ(outer->get("args")->get("parent_id"), nullptr);
  EXPECT_DOUBLE_EQ(inner->get("args")->get("parent_id")->number,
                   outer->get("args")->get("span_id")->number);
  EXPECT_EQ(inner->get("args")->get("stripe")->string, "3");
}

// ---------------------------------------------------------------- channel

TEST(TransferChannel, FanOutAndUnsubscribe) {
  TransferChannel channel;
  EXPECT_FALSE(channel.has_subscribers());
  EXPECT_FALSE(channel.has_perf_subscribers());
  int perfs = 0, restarts = 0, completes = 0;
  TransferChannel::Observer observer;
  observer.on_perf = [&](const PerfMarker&) { ++perfs; };
  observer.on_restart = [&](const RestartMarker&) { ++restarts; };
  observer.on_complete = [&](const TransferSummary&) { ++completes; };
  const auto token = channel.subscribe(std::move(observer));
  TransferChannel::Observer complete_only;
  complete_only.on_complete = [&](const TransferSummary&) { ++completes; };
  const auto token2 = channel.subscribe(std::move(complete_only));

  EXPECT_TRUE(channel.has_subscribers());
  EXPECT_TRUE(channel.has_perf_subscribers());
  channel.perf(PerfMarker{});
  channel.restart(RestartMarker{});
  channel.complete(TransferSummary{});
  EXPECT_EQ(perfs, 1);
  EXPECT_EQ(restarts, 1);
  EXPECT_EQ(completes, 2);

  channel.unsubscribe(token);
  // Only the on_complete observer remains: no one reads perf markers.
  EXPECT_TRUE(channel.has_subscribers());
  EXPECT_FALSE(channel.has_perf_subscribers());
  channel.complete(TransferSummary{});
  EXPECT_EQ(completes, 3);  // only the second observer remains
  channel.unsubscribe(token2);
  EXPECT_FALSE(channel.has_subscribers());
}

// The channel-fed EWMA history must match PR 1's direct
// on_transfer_observed feed: successes recorded with the same mbps, same
// peer, failures ignored (they are scored by record_failure elsewhere).
TEST(TransferChannel, SummaryFeedMatchesDirectEwmaFeed) {
  sched::CostAwareSelector direct(0.3);
  sched::CostAwareSelector channel_fed(0.3);

  TransferChannel channel;
  TransferChannel::Observer observer;
  observer.on_complete = [&](const TransferSummary& summary) {
    if (summary.ok) channel_fed.record_mbps(summary.peer, summary.mbps);
  };
  channel.subscribe(std::move(observer));

  const struct {
    const char* host;
    double mbps;
    bool ok;
  } transfers[] = {
      {"cern", 18.5, true}, {"anl", 7.25, true},  {"cern", 22.0, true},
      {"anl", 0.0, false},  {"fnal", 33.1, true}, {"cern", 11.0, true},
  };
  for (const auto& t : transfers) {
    if (t.ok) {
      gridftp::TransferResult result;
      result.mbps = t.mbps;
      direct.record(t.host, result);  // the PR 1 path
    }
    TransferSummary summary;
    summary.peer = t.host;
    summary.mbps = t.mbps;
    summary.ok = t.ok;
    channel.complete(summary);  // the channel path
  }
  for (const char* host : {"cern", "anl", "fnal"}) {
    EXPECT_DOUBLE_EQ(channel_fed.estimate(host), direct.estimate(host))
        << host;
  }
  EXPECT_EQ(channel_fed.observations(), direct.observations());
}

// ------------------------------------------------- end-to-end span chain

/// Spans captured from a real two-site auto-replication, keyed by name.
TEST(ObservabilityIntegration, ReplicationSpanChainAndSiteMetrics) {
  using namespace gdmp::testbed;
  GridConfig config = two_site_config("cern", "anl");
  config.event_count = 1000;
  for (auto& spec : config.sites) {
    spec.site.gdmp.transfer.parallel_streams = 4;
    spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
  }
  config.sites[1].site.gdmp.auto_replicate_on_notify = true;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  Site& cern = grid.site(0);
  Site& anl = grid.site(1);

  auto& tracer = Tracer::global();
  tracer.clear();
  tracer.set_clock([&grid] { return grid.simulator().now(); });
  tracer.enable(true);

  bool subscribed = false;
  anl.gdmp().subscribe(cern.host().id(), 2000,
                       [&](Status s) { subscribed = s.is_ok(); });
  grid.run_until(grid.simulator().now() + 30 * kSecond);
  ASSERT_TRUE(subscribed);

  const LogicalFileName lfn = "lfn://cms/obs/f0";
  ASSERT_TRUE(cern.pool()
                  .add_file(cern.gdmp_server().local_path_for(lfn),
                            8 * kMiB, 0x0b5u, grid.simulator().now())
                  .is_ok());
  core::PublishedFile file;
  file.lfn = lfn;
  cern.gdmp().publish({file}, [](Status) {});
  grid.run_until(grid.simulator().now() + 3600 * kSecond);
  tracer.enable(false);

  ASSERT_TRUE(anl.scheduler().idle());
  EXPECT_EQ(anl.gdmp_server().stats().files_replicated, 1);
  EXPECT_EQ(tracer.orphan_ends(), 0);
  EXPECT_EQ(tracer.open_spans(), 0u);

  // Index the chain: find one span per name along the replicate path.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& span : tracer.spans()) by_id[span.id.value] = &span;
  auto find_named = [&](const std::string& name) -> const Span* {
    for (const Span& span : tracer.spans()) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const Span* sched_request = find_named("sched.request");
  const Span* queue_wait = find_named("sched.queue_wait");
  const Span* replicate = find_named("gdmp.replicate");
  const Span* transfer = find_named("gridftp.transfer");
  const Span* crc = find_named("gridftp.crc_check");
  const Span* catalog_update = find_named("gdmp.catalog_update");
  ASSERT_NE(sched_request, nullptr);
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(replicate, nullptr);
  ASSERT_NE(transfer, nullptr);
  ASSERT_NE(crc, nullptr);
  ASSERT_NE(catalog_update, nullptr);

  // sched.request hangs off the notify RPC; everything else chains down.
  ASSERT_TRUE(sched_request->parent.valid());
  EXPECT_EQ(by_id.at(sched_request->parent.value)->name, "rpc.request");
  EXPECT_EQ(queue_wait->parent.value, sched_request->id.value);
  EXPECT_EQ(replicate->parent.value, sched_request->id.value);
  EXPECT_EQ(transfer->parent.value, replicate->id.value);
  EXPECT_EQ(crc->parent.value, transfer->id.value);
  EXPECT_EQ(catalog_update->parent.value, replicate->id.value);

  // The transfer ran with >= 2 parallel-stream child spans.
  int streams = 0;
  for (const Span& span : tracer.spans()) {
    if (span.name == "gridftp.stream" &&
        span.parent.value == transfer->id.value) {
      ++streams;
    }
  }
  EXPECT_GE(streams, 2);

  // Site metrics are the single source of truth across subsystems.
  const std::string dump = anl.metrics().dump();
  for (const char* needle :
       {"site.anl.gdmp.files_replicated 1", "site.anl.sched.completed 1",
        "site.anl.net.tcp.connections", "site.anl.gridftp.rpc.requests_served",
        "site.anl.transfer.completed 1"}) {
    EXPECT_NE(dump.find(needle), std::string::npos) << needle << "\n" << dump;
  }
  // The producer side serves the RETR: its gridftp counters moved too.
  const auto& ftp_stats = cern.ftp_server().stats();
  const std::string cern_dump = cern.metrics().dump();
  EXPECT_NE(cern_dump.find("site.cern.gridftp.retrievals " +
                           std::to_string(ftp_stats.retrievals)),
            std::string::npos);

  tracer.clear();
}

// ---------------------------------------------------------- time series

TEST(TimeSeries, RateWindowEvictsOldestDelta) {
  RateWindow window(3);
  window.push(10);
  window.push(20);
  window.push(30);
  EXPECT_EQ(window.window_sum(), 60);
  EXPECT_EQ(window.filled(), 3);
  window.push(40);  // evicts the 10
  EXPECT_EQ(window.window_sum(), 90);
  EXPECT_EQ(window.filled(), 3);
  EXPECT_EQ(window.capacity(), 3);
}

TEST(TimeSeries, HistogramPercentileNearestRank) {
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  const std::vector<std::int64_t> counts{2, 1, 0, 1};  // overflow holds max
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 0.50, 9.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 0.75, 9.0), 2.0);
  // Rank lands in the overflow bucket: the observed max caps it.
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 0.99, 9.0), 9.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, {0, 0, 0, 0}, 0.5, 9.0), 0.0);
}

TEST(TimeSeries, WindowedHistogramRingMergesTickDeltas) {
  WindowedHistogram window(2);
  window.push({1, 0, 0}, 1, 0.5);  // tick 1
  window.push({0, 2, 0}, 2, 6.0);  // tick 2
  EXPECT_EQ(window.count(), 3);
  window.push({0, 0, 1}, 1, 9.0);  // tick 3 evicts tick 1
  EXPECT_EQ(window.count(), 3);
  EXPECT_EQ(window.merged_buckets(), (std::vector<std::int64_t>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(window.sum(), 15.0);
  EXPECT_DOUBLE_EQ(window.percentile({1.0, 4.0}, 0.50, 9.0), 4.0);
  EXPECT_DOUBLE_EQ(window.percentile({1.0, 4.0}, 0.99, 9.0), 9.0);
}

TEST(TimeSeries, SnapshotMetricRegisteredBetweenTicks) {
  MetricsRegistry registry;
  TimeSeriesStore store(4);
  store.add_registry(&registry);
  registry.counter("a.events").add(5);
  store.tick();
  EXPECT_EQ(store.counters().at("a.events").delta, 5);

  // A metric that appears between ticks moves the registry's generation,
  // so the plan rebuilds and the new series starts with the full total as
  // its first delta — nothing is silently dropped.
  registry.counter("b.late").add(7);
  registry.counter("a.events").add(1);
  store.tick();
  EXPECT_EQ(store.ticks(), 2u);
  EXPECT_EQ(store.counters().at("a.events").total, 6);
  EXPECT_EQ(store.counters().at("a.events").delta, 1);
  EXPECT_EQ(store.counters().at("b.late").total, 7);
  EXPECT_EQ(store.counters().at("b.late").delta, 7);
}

TEST(TimeSeries, CounterResetReanchorsWithoutNegativeDelta) {
  MetricsRegistry registry;
  TimeSeriesStore store;
  store.add_registry(&registry);
  registry.counter("a.events").add(10);
  store.tick();

  registry.clear();  // registry reuse: totals go backwards
  registry.counter("a.events").add(3);
  store.tick();
  EXPECT_EQ(store.counters().at("a.events").delta, 0);  // clamped, not -7
  EXPECT_EQ(store.counters().at("a.events").total, 3);  // re-anchored

  registry.counter("a.events").add(4);
  store.tick();
  EXPECT_EQ(store.counters().at("a.events").delta, 4);
  EXPECT_EQ(store.counters().at("a.events").total, 7);
}

TEST(TimeSeries, HistogramWindowSlidesAcrossTicks) {
  MetricsRegistry registry;
  TimeSeriesStore store(2);
  store.add_registry(&registry);
  // Registered after add_registry: generation() moves, so the first tick
  // rebuilds the pointer plan and picks the histogram up.
  Histogram& histogram = registry.histogram("a.secs", {1.0, 10.0});
  histogram.observe(0.5);
  store.tick();
  EXPECT_EQ(store.hists().at("a.secs").window.count(), 1);

  histogram.observe(5.0);
  histogram.observe(5.0);
  store.tick();
  EXPECT_EQ(store.hists().at("a.secs").window.count(), 3);

  store.tick();  // quiet tick: the first tick's sample leaves the window
  const auto& series = store.hists().at("a.secs");
  EXPECT_EQ(series.window.count(), 2);
  EXPECT_EQ(series.total_count, 3);  // cumulative state keeps everything
  EXPECT_EQ(series.delta_count, 0);
  // The windowed p50 no longer sees the evicted 0.5 s sample.
  EXPECT_DOUBLE_EQ(series.window.percentile(series.bounds, 0.50, series.max),
                   10.0);
}

// ------------------------------------------------------------- heartbeat

TEST(Heartbeat, ManualTicksRollupsAndCampaign) {
  sim::Simulator simulator;
  MetricsRegistry registry;
  HeartbeatConfig config;
  config.period = kSecond;
  config.window_ticks = 4;
  HeartbeatReporter reporter(simulator, config);
  reporter.add_registry(&registry);
  std::vector<std::string> lines;
  reporter.set_sink([&](const std::string& line) { lines.push_back(line); });

  registry.counter("site.anl.sched.bytes_moved").add(1000);
  registry.gauge("site.anl.sched.queue_depth").set(2.0);
  reporter.tick();
  registry.counter("site.anl.sched.bytes_moved").add(500);
  reporter.tick();
  reporter.finish();

  ASSERT_EQ(lines.size(), 3u);
  std::string error;
  const auto first = json_parse(lines[0], &error);
  ASSERT_NE(first, nullptr) << error;
  EXPECT_EQ(first->get("type")->string, "rollup");
  EXPECT_DOUBLE_EQ(first->get("seq")->number, 1.0);
  const JsonValue* moved =
      first->get("counters")->get("site.anl.sched.bytes_moved");
  ASSERT_NE(moved, nullptr);
  EXPECT_DOUBLE_EQ(moved->get("delta")->number, 1000.0);
  EXPECT_DOUBLE_EQ(
      first->get("gauges")->get("site.anl.sched.queue_depth")->number, 2.0);
  // The reporter's own registry rides the stream like any source.
  ASSERT_NE(first->get("counters")->get("obs.heartbeat.ticks"), nullptr);

  const auto second = json_parse(lines[1], &error);
  ASSERT_NE(second, nullptr) << error;
  EXPECT_DOUBLE_EQ(second->get("seq")->number, 2.0);
  EXPECT_DOUBLE_EQ(second->get("counters")
                       ->get("site.anl.sched.bytes_moved")
                       ->get("delta")
                       ->number,
                   500.0);

  const auto campaign = json_parse(lines[2], &error);
  ASSERT_NE(campaign, nullptr) << error;
  EXPECT_EQ(campaign->get("type")->string, "campaign");
  EXPECT_DOUBLE_EQ(
      campaign->get("sites")->get("anl")->get("sched.bytes_moved")->number,
      1500.0);
  EXPECT_DOUBLE_EQ(campaign->get("economics")->get("bytes_moved")->number,
                   1500.0);
  EXPECT_EQ(reporter.ticks(), 2u);
}

TEST(Heartbeat, SparseStreamSkipsIdleCounters) {
  sim::Simulator simulator;
  MetricsRegistry registry;
  HeartbeatReporter reporter(simulator, {});
  reporter.add_registry(&registry);
  std::vector<std::string> lines;
  reporter.set_sink([&](const std::string& line) { lines.push_back(line); });

  registry.counter("a.busy").add(10);
  registry.counter("a.idle");  // never moves
  reporter.tick();
  reporter.tick();  // a.busy is idle this tick too
  reporter.finish();  // before `lines` goes out of scope under the sink

  ASSERT_EQ(lines.size(), 3u);  // two rollups + the campaign record
  EXPECT_NE(lines[0].find("\"a.busy\""), std::string::npos);
  EXPECT_EQ(lines[0].find("\"a.idle\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"a.busy\""), std::string::npos);
}

// -------------------------------------------------------------- watchdog

TEST(Watchdog, GlobMatchCapturesStar) {
  std::string capture;
  EXPECT_TRUE(watch_glob_match("site.*.queue", "site.anl.queue", &capture));
  EXPECT_EQ(capture, "anl");
  EXPECT_FALSE(watch_glob_match("site.*.queue", "site.anl.depth", &capture));
  EXPECT_TRUE(watch_glob_match("exact", "exact", &capture));
  EXPECT_EQ(capture, "");
  EXPECT_FALSE(watch_glob_match("exact", "exactly", &capture));
}

TEST(Watchdog, GaugeCeilingStreakFiresOnceThenRearms) {
  MetricsRegistry registry;
  TimeSeriesStore store;
  store.add_registry(&registry);
  Gauge& utilization = registry.gauge("grid.uplink.anl.utilization");
  Watchdog watchdog;
  WatchRule rule;
  rule.name = "link_saturation";
  rule.metric = "grid.uplink.*.utilization";
  rule.threshold = 0.95;
  rule.for_ticks = 3;
  watchdog.add_rule(std::move(rule));

  auto tick = [&](double value) {
    utilization.set(value);
    store.tick();
    return watchdog.evaluate(store);
  };
  EXPECT_TRUE(tick(0.99).empty());  // streak 1
  EXPECT_TRUE(tick(0.99).empty());  // streak 2
  const auto alerts = tick(0.99);   // streak 3: fires
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "link_saturation");
  EXPECT_EQ(alerts[0].metric, "grid.uplink.anl.utilization");
  EXPECT_DOUBLE_EQ(alerts[0].value, 0.99);
  EXPECT_TRUE(tick(0.99).empty());  // sustained: pages once per episode
  EXPECT_TRUE(tick(0.50).empty());  // clears: re-arms
  EXPECT_TRUE(tick(0.99).empty());
  EXPECT_TRUE(tick(0.99).empty());
  EXPECT_EQ(tick(0.99).size(), 1u);  // second episode fires again
}

TEST(Watchdog, ConservationPairsCountersByCapture) {
  MetricsRegistry registry;
  TimeSeriesStore store;
  store.add_registry(&registry);
  Counter& sent = registry.counter("grid.uplink.anl.bytes_sent");
  Counter& delivered = registry.counter("grid.uplink.anl.bytes_delivered");
  // A link with no delivered partner is skipped, never alerted on.
  registry.counter("grid.uplink.cern.bytes_sent").add(100'000);

  Watchdog watchdog;
  WatchRule rule;
  rule.name = "link_conservation";
  rule.kind = WatchRule::Kind::kConservation;
  rule.metric = "grid.uplink.*.bytes_sent";
  rule.metric_b = "grid.uplink.*.bytes_delivered";
  rule.threshold = 100.0;
  watchdog.add_rule(std::move(rule));

  sent.add(150);
  delivered.add(100);  // drift 50: within the in-flight tolerance
  store.tick();
  EXPECT_TRUE(watchdog.evaluate(store).empty());

  sent.add(200);  // drift 250: bytes are leaking
  store.tick();
  const auto alerts = watchdog.evaluate(store);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "link_conservation");
  EXPECT_EQ(alerts[0].metric, "grid.uplink.anl.bytes_sent");
  EXPECT_DOUBLE_EQ(alerts[0].value, 250.0);

  store.tick();  // drift persists: still one page per episode
  EXPECT_TRUE(watchdog.evaluate(store).empty());
  delivered.add(250);  // catches up: re-arms
  store.tick();
  EXPECT_TRUE(watchdog.evaluate(store).empty());
}

}  // namespace
}  // namespace gdmp::obs
