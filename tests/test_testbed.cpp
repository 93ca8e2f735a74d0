// Tests for the testbed assembly layer and workload generators.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp::testbed {
namespace {

TEST(GridAssembly, TwoSiteConfigBuildsAndStarts) {
  Grid grid(two_site_config("cern", "anl"));
  ASSERT_TRUE(grid.start().is_ok());
  EXPECT_EQ(grid.site_count(), 2u);
  EXPECT_EQ(grid.site(0).name(), "cern");
  EXPECT_EQ(grid.site(1).name(), "anl");
  ASSERT_NE(grid.find_site("anl"), nullptr);
  EXPECT_EQ(grid.find_site("nosuch"), nullptr);
  ASSERT_NE(grid.uplink(0), nullptr);
  EXPECT_NE(grid.catalog_node(), net::kInvalidNode);
}

TEST(GridAssembly, EndToEndRttMatchesConfiguredDelays) {
  // Two legs of 31.25 ms plus LAN hops: a TCP handshake (SYN + SYN|ACK)
  // completes in one RTT ≈ 125 ms.
  Grid grid(two_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  net::TcpConfig config;
  bool established = false;
  SimTime established_at = 0;
  (void)grid.site(1).stack().listen(
      6000, config, [](net::TcpConnection::Ptr) {});
  const SimTime start = grid.simulator().now();
  auto client = grid.site(0).stack().connect(grid.site(1).host().id(), 6000,
                                             config);
  client->on_established = [&](const Status& s) {
    established = s.is_ok();
    established_at = grid.simulator().now();
  };
  grid.run_until(grid.simulator().now() + 10 * kSecond);
  ASSERT_TRUE(established);
  const double rtt_ms = to_seconds(established_at - start) * 1e3;
  EXPECT_NEAR(rtt_ms, 125.0, 5.0);
}

TEST(GridAssembly, SitesWithoutFederationOrMss) {
  GridConfig config = two_site_config();
  config.sites[0].site.has_federation = false;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  EXPECT_EQ(grid.site(0).federation(), nullptr);
  EXPECT_EQ(grid.site(0).persistency(), nullptr);
  EXPECT_EQ(grid.site(0).mss(), nullptr);
  EXPECT_NE(grid.site(1).federation(), nullptr);
}

TEST(GridAssembly, CrossTrafficOccupiesUplink) {
  GridConfig config = two_site_config("a", "b", 10 * kMbps);
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  grid.run_until(10 * kSecond);
  ASSERT_NE(grid.uplink(0), nullptr);
  // ~10 Mbit/s for 10 s ≈ 12.5 MB of wire bytes on the uplink.
  EXPECT_GT(grid.uplink(0)->stats().bytes_sent, 8 * kMiB);
}

TEST(Workload, ProduceRunCreatesClusteredFiles) {
  Grid grid(two_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  ProductionConfig production;
  production.tier = objstore::Tier::kEsd;  // 500 objects/file
  production.event_lo = 100;
  production.event_hi = 1600;
  auto files = produce_run(grid.site(0), production);
  ASSERT_EQ(files.size(), 3u);  // 1500 events / 500 per file
  Bytes total = 0;
  for (const auto& file : files) {
    EXPECT_TRUE(grid.site(0).pool().contains(file.local_path));
    EXPECT_TRUE(grid.site(0).federation()->is_attached(file.local_path));
    EXPECT_EQ(file.file_type, "objectivity");
    EXPECT_EQ(file.extra.at("layout"), "range");
    total += grid.site(0).pool().peek(file.local_path)->size;
  }
  EXPECT_EQ(total, 1500LL * 100 * kKiB);
  // Every produced object is locally readable.
  EXPECT_TRUE(grid.site(0).persistency()->available(
      objstore::make_object_id(objstore::Tier::kEsd, 100)));
  EXPECT_TRUE(grid.site(0).persistency()->available(
      objstore::make_object_id(objstore::Tier::kEsd, 1599)));
  EXPECT_FALSE(grid.site(0).persistency()->available(
      objstore::make_object_id(objstore::Tier::kEsd, 1600)));
}

TEST(Workload, ProduceRunStopsWhenPoolFull) {
  GridConfig config = two_site_config();
  config.sites[0].site.pool_capacity = 30 * kMiB;  // fits ~1.5 AOD files
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 10'000;  // would need 5 files = ~98 MiB
  auto files = produce_run(grid.site(0), production);
  EXPECT_GE(files.size(), 1u);
  // The pool honours its capacity by evicting LRU files, so older
  // production files may already be gone — but never over-commits.
  EXPECT_LE(grid.site(0).pool().used_bytes(),
            grid.site(0).pool().capacity());
  std::size_t still_on_disk = 0;
  for (const auto& file : files) {
    if (grid.site(0).pool().contains(file.local_path)) ++still_on_disk;
  }
  EXPECT_LT(still_on_disk, files.size());
}

TEST(Workload, AllTiersShareEventRange) {
  Grid grid(two_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  auto files = produce_all_tiers(grid.site(0), 0, 1000, "full");
  int tiers_seen[4] = {0, 0, 0, 0};
  for (const auto& file : files) {
    tiers_seen[std::stoi(file.extra.at("tier"))]++;
  }
  EXPECT_EQ(tiers_seen[0], 1);   // tag: 100k/file -> 1
  EXPECT_EQ(tiers_seen[1], 1);   // aod: 2000/file -> 1
  EXPECT_EQ(tiers_seen[2], 2);   // esd: 500/file -> 2
  EXPECT_EQ(tiers_seen[3], 10);  // raw: 100/file -> 10
}

TEST(Observatory, FluidHeartbeatStreamIsDeterministic) {
  // Two same-seed fluid-model runs with a 30 s heartbeat must produce the
  // identical rollup stream, byte for byte — the in-process counterpart of
  // tools/determinism_check's GDMP_ROLLUP_FILE comparison.
  auto run = [] {
    GridConfig config = two_site_config("cern", "anl");
    config.transfer_model = flow::TransferModel::kFluid;
    config.heartbeat_period = 30 * kSecond;
    config.event_count = 4000;
    config.sites[1].site.gdmp.auto_replicate_on_notify = true;
    Grid grid(config);
    EXPECT_TRUE(grid.start().is_ok());
    std::string stream;
    grid.heartbeat()->set_sink([&stream](const std::string& line) {
      stream += line;
      stream += '\n';
    });
    Site& cern = grid.site(0);
    Site& anl = grid.site(1);
    anl.gdmp().subscribe(cern.host().id(), 2000, [](Status) {});
    grid.run_until(grid.simulator().now() + 30 * kSecond);
    ProductionConfig production;
    production.tier = objstore::Tier::kAod;
    production.event_hi = 4000;
    auto files = produce_run(cern, production);
    cern.gdmp().publish(files, [](Status) {});
    grid.run_until(grid.simulator().now() + 3600 * kSecond);
    EXPECT_TRUE(anl.scheduler().idle());
    grid.heartbeat()->finish();
    return stream;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"type\":\"campaign\""), std::string::npos);
  // The fluid uplink instruments made it into the stream: the payload
  // leaves through cern's uplink, so that is the bytes_moved counter that
  // shows deltas (anl's uplink only carries control traffic).
  EXPECT_NE(first.find("grid.uplink.anl.utilization"), std::string::npos);
  EXPECT_NE(first.find("grid.uplink.cern.bytes_moved"), std::string::npos);
}

TEST(Observatory, SaturatedUplinkFiresWatchdogOnce) {
  // Pinned cross traffic at ≈100% of the payload capacity of cern's 45
  // Mbit/s uplink holds its utilization above the 0.95 ceiling from tick
  // 1, so link_saturation fires exactly once, on the configured third
  // sustained tick — deterministically.
  GridConfig config = two_site_config("cern", "anl", 44 * kMbps);
  config.transfer_model = flow::TransferModel::kFluid;
  config.heartbeat_period = kSecond;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  std::vector<std::string> lines;
  grid.heartbeat()->set_sink(
      [&lines](const std::string& line) { lines.push_back(line); });
  grid.run_until(10 * kSecond);
  grid.heartbeat()->finish();

  EXPECT_EQ(grid.heartbeat()->ticks(), 10u);
  EXPECT_EQ(grid.heartbeat()->alerts_total(), 1);
  std::size_t alert_records = 0, alert_seq = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("\"rule\":\"link_saturation\"") == std::string::npos) {
      continue;
    }
    ++alert_records;
    alert_seq = i + 1;  // rollup seq is 1-based in emission order
  }
  EXPECT_EQ(alert_records, 1u);
  EXPECT_EQ(alert_seq, 3u);  // watch_saturation_ticks = 3
  // The alert also lands in the reporter's own counters on later ticks.
  EXPECT_NE(lines.back().find("\"alerts_total\":1"), std::string::npos);
  EXPECT_NE(lines[3].find("\"obs.alert.link_saturation\""),
            std::string::npos);
}

TEST(SiteAssembly, StorageBackendSelection) {
  GridConfig config = two_site_config();
  config.sites[0].site.has_mss = true;
  config.sites[0].site.use_script_stager = false;
  config.sites[1].site.has_mss = true;
  config.sites[1].site.use_script_stager = true;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  ASSERT_NE(grid.site(0).mss(), nullptr);
  ASSERT_NE(grid.site(1).mss(), nullptr);
  EXPECT_STREQ(grid.site(0).mss()->plugin_name(), "hrm");
  EXPECT_STREQ(grid.site(1).mss()->plugin_name(), "script");
}

// ------------------------------------------------------- registry schema

// Sorted "name kind" lines of a registry; `prefix` is cut from the names.
std::string schema_of(const obs::MetricsRegistry& registry,
                      const std::string& prefix = "") {
  std::string out;
  registry.visit([&](const std::string& name, obs::MetricKind kind,
                     const obs::Counter*, const obs::Gauge*,
                     const obs::Histogram*) {
    out += name.starts_with(prefix) ? name.substr(prefix.size()) : name;
    out += kind == obs::MetricKind::kCounter ? " counter\n"
           : kind == obs::MetricKind::kGauge ? " gauge\n"
                                             : " histogram\n";
  });
  return out;
}

// The metric names and kinds rollups, dumps, watchdog rules and perfbench
// rows key on. Every site registry holds kSiteSchema under "site.<name>.",
// under either transfer model.
constexpr const char* kSiteSchema = R"(gdmp.catalog_cache.lookup.evictions counter
gdmp.catalog_cache.lookup.hits counter
gdmp.catalog_cache.lookup.invalidations counter
gdmp.catalog_cache.lookup.misses counter
gdmp.catalog_cache.lookup.stale_revalidate counter
gdmp.catalog_cache.search.evictions counter
gdmp.catalog_cache.search.hits counter
gdmp.catalog_cache.search.invalidations counter
gdmp.catalog_cache.search.misses counter
gdmp.catalog_cache.search.stale_revalidate counter
gdmp.files_published counter
gdmp.files_replicated counter
gdmp.notifications_queued counter
gdmp.notifications_received counter
gdmp.notifications_sent counter
gdmp.replication_failures counter
gdmp.rpc.auth_failures counter
gdmp.rpc.requests_served counter
gdmp.stage_requests_served counter
gridftp.blocks_corrupted counter
gridftp.bytes_received counter
gridftp.bytes_sent counter
gridftp.retrievals counter
gridftp.rpc.auth_failures counter
gridftp.rpc.requests_served counter
gridftp.stores counter
gridftp.third_party counter
net.tcp.bytes_delivered counter
net.tcp.connections_opened counter
net.tcp.fast_retransmits counter
net.tcp.retransmits counter
net.tcp.segments_received counter
net.tcp.segments_sent counter
net.tcp.timeouts counter
sched.active gauge
sched.busy_deferrals counter
sched.bytes_moved counter
sched.cancelled counter
sched.completed counter
sched.dead_lettered counter
sched.dispatched counter
sched.queue_depth gauge
sched.retries counter
sched.submitted counter
storage.pool.bytes_evicted counter
storage.pool.evictions counter
storage.pool.free_bytes gauge
storage.pool.hits counter
storage.pool.misses counter
storage.pool.used_bytes gauge
transfer.completed counter
transfer.failed counter
transfer.mbps histogram
transfer.restarts counter
transfer.seconds histogram
)";
constexpr const char* kPacketGridSchema = R"(grid.uplink.anl.bytes_delivered counter
grid.uplink.anl.bytes_sent counter
grid.uplink.anl.packets_dropped counter
grid.uplink.anl.utilization gauge
grid.uplink.cern.bytes_delivered counter
grid.uplink.cern.bytes_sent counter
grid.uplink.cern.packets_dropped counter
grid.uplink.cern.utilization gauge
)";
constexpr const char* kFluidGridSchema = R"(grid.flow.active_flows gauge
grid.flow.completed counter
grid.flow.links_recomputed counter
grid.flow.renegotiations counter
grid.uplink.anl.bytes_moved counter
grid.uplink.anl.utilization gauge
grid.uplink.cern.bytes_moved counter
grid.uplink.cern.utilization gauge
)";

// The site metrics no component keeps: the transfer channel's observer
// pushes them.
constexpr const char* kPushedSiteMetrics[] = {
    "transfer.completed", "transfer.failed", "transfer.mbps",
    "transfer.restarts", "transfer.seconds"};

// Two sites with the heartbeat on, after anl auto-replicated cern's AOD
// run (two files) through its scheduler.
std::unique_ptr<Grid> replicated_two_site_grid(flow::TransferModel model) {
  GridConfig config = two_site_config("cern", "anl");
  config.transfer_model = model;
  config.heartbeat_period = 30 * kSecond;
  config.event_count = 4000;
  config.sites[1].site.gdmp.auto_replicate_on_notify = true;
  auto grid = std::make_unique<Grid>(config);
  EXPECT_TRUE(grid->start().is_ok());
  grid->heartbeat()->set_sink([](const std::string&) {});
  Site& cern = grid->site(0);
  Site& anl = grid->site(1);
  anl.gdmp().subscribe(cern.host().id(), 2000, [](Status) {});
  grid->run_until(grid->simulator().now() + 30 * kSecond);
  ProductionConfig production;
  production.event_hi = 4000;
  cern.gdmp().publish(produce_run(cern, production), [](Status) {});
  grid->run_until(grid->simulator().now() + 3600 * kSecond);
  EXPECT_TRUE(anl.scheduler().idle());
  EXPECT_EQ(anl.gdmp_server().stats().files_replicated, 2);
  return grid;
}

using Fields = std::vector<std::pair<std::string, double>>;

// Each exposed site metric and the field or state it must read.
Fields site_fields(Site& site) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  const net::TcpStats& tcp = site.stack().totals();
  const storage::DiskPoolStats& pool = site.pool().stats();
  const gridftp::FtpServerStats& ftp = site.ftp_server().stats();
  const core::GdmpServerStats& gdmp = site.gdmp_server().stats();
  const sched::SchedulerStats& sched = site.scheduler().stats();
  Fields fields = {
      {"net.tcp.connections_opened", d(site.stack().connections_opened())},
      {"net.tcp.segments_sent", d(tcp.segments_sent)},
      {"net.tcp.segments_received", d(tcp.segments_received)},
      {"net.tcp.retransmits", d(tcp.retransmits)},
      {"net.tcp.fast_retransmits", d(tcp.fast_retransmits)},
      {"net.tcp.timeouts", d(tcp.timeouts)},
      {"net.tcp.bytes_delivered", d(tcp.bytes_delivered)},
      {"storage.pool.hits", d(pool.hits)},
      {"storage.pool.misses", d(pool.misses)},
      {"storage.pool.evictions", d(pool.evictions)},
      {"storage.pool.bytes_evicted", d(pool.bytes_evicted)},
      {"storage.pool.used_bytes", d(site.pool().used_bytes())},
      {"storage.pool.free_bytes", d(site.pool().free_bytes())},
      {"gridftp.retrievals", d(ftp.retrievals)},
      {"gridftp.stores", d(ftp.stores)},
      {"gridftp.third_party", d(ftp.third_party)},
      {"gridftp.blocks_corrupted", d(ftp.blocks_corrupted)},
      {"gridftp.bytes_sent", d(ftp.bytes_sent)},
      {"gridftp.bytes_received", d(ftp.bytes_received)},
      {"gridftp.rpc.requests_served",
       d(site.ftp_server().rpc().requests_served())},
      {"gridftp.rpc.auth_failures", d(site.ftp_server().rpc().auth_failures())},
      {"gdmp.files_published", d(gdmp.files_published)},
      {"gdmp.notifications_sent", d(gdmp.notifications_sent)},
      {"gdmp.notifications_received", d(gdmp.notifications_received)},
      {"gdmp.notifications_queued", d(gdmp.notifications_queued)},
      {"gdmp.files_replicated", d(gdmp.files_replicated)},
      {"gdmp.replication_failures", d(gdmp.replication_failures)},
      {"gdmp.stage_requests_served", d(gdmp.stage_requests_served)},
      {"gdmp.rpc.requests_served",
       d(site.gdmp_server().rpc().requests_served())},
      {"gdmp.rpc.auth_failures", d(site.gdmp_server().rpc().auth_failures())},
      {"sched.submitted", d(sched.submitted)},
      {"sched.completed", d(sched.completed)},
      {"sched.retries", d(sched.retries)},
      {"sched.dead_lettered", d(sched.dead_lettered)},
      {"sched.cancelled", d(sched.cancelled)},
      {"sched.busy_deferrals", d(sched.busy_deferrals)},
      {"sched.dispatched", d(sched.dispatched)},
      {"sched.bytes_moved", d(sched.bytes_moved)},
      {"sched.queue_depth", d(site.scheduler().queue_depth())},
      {"sched.active", d(site.scheduler().active())},
  };
  const auto add_cache = [&](const std::string& name, const auto& cache) {
    const std::string scope = "gdmp.catalog_cache." + name + ".";
    fields.emplace_back(scope + "hits", d(cache.hits));
    fields.emplace_back(scope + "misses", d(cache.misses));
    fields.emplace_back(scope + "stale_revalidate", d(cache.stale_probes));
    fields.emplace_back(scope + "invalidations", d(cache.invalidations));
    fields.emplace_back(scope + "evictions", d(cache.evictions));
  };
  add_cache("lookup", site.gdmp_server().catalog().lookup_cache_stats());
  add_cache("search", site.gdmp_server().catalog().search_cache_stats());
  return fields;
}

// Each exposed grid metric and the field or state it must read.
Fields grid_fields(Grid& grid) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  Fields fields;
  if (const flow::FlowEngine* engine = grid.flow_engine()) {
    fields = {{"grid.flow.renegotiations", d(engine->stats().renegotiations)},
              {"grid.flow.links_recomputed",
               d(engine->stats().links_recomputed)},
              {"grid.flow.completed", d(engine->stats().flows_completed)},
              {"grid.flow.active_flows", d(engine->active_flows())}};
    return fields;
  }
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    const std::string scope = "grid.uplink." + grid.site(i).name() + ".";
    const net::LinkStats& link = grid.uplink(i)->stats();
    fields.emplace_back(scope + "bytes_sent", d(link.bytes_sent));
    fields.emplace_back(scope + "bytes_delivered", d(link.bytes_delivered));
    fields.emplace_back(scope + "packets_dropped", d(link.packets_dropped));
  }
  return fields;
}

// Checks every field against the registry value under `prefix` + name.
void expect_reads(const obs::MetricsRegistry& registry,
                  const std::string& prefix, const Fields& fields) {
  std::map<std::string, double> values;
  for (const auto& entry : registry.snapshot().entries) {
    values[entry.name] = entry.kind == obs::MetricKind::kGauge
                             ? entry.gauge
                             : static_cast<double>(entry.counter);
  }
  for (const auto& [name, value] : fields) {
    const auto it = values.find(prefix + name);
    if (it == values.end()) {
      ADD_FAILURE() << "not registered: " << prefix + name;
      continue;
    }
    EXPECT_EQ(it->second, value) << prefix + name;
  }
}

TEST(RegistrySchema, NamesAndKindsHoldUnderBothModels) {
  for (const auto model :
       {flow::TransferModel::kPacket, flow::TransferModel::kFluid}) {
    SCOPED_TRACE(model == flow::TransferModel::kPacket ? "packet" : "fluid");
    const auto grid = replicated_two_site_grid(model);
    for (std::size_t i = 0; i < grid->site_count(); ++i) {
      Site& site = grid->site(i);
      EXPECT_EQ(schema_of(site.metrics(), "site." + site.name() + "."),
                kSiteSchema)
          << site.name();
    }
    EXPECT_EQ(schema_of(grid->metrics()),
              model == flow::TransferModel::kPacket ? kPacketGridSchema
                                                    : kFluidGridSchema);
  }
}

TEST(RegistrySchema, ExposedMetricsReadTheirFields) {
  for (const auto model :
       {flow::TransferModel::kPacket, flow::TransferModel::kFluid}) {
    SCOPED_TRACE(model == flow::TransferModel::kPacket ? "packet" : "fluid");
    const auto grid = replicated_two_site_grid(model);
    for (std::size_t i = 0; i < grid->site_count(); ++i) {
      Site& site = grid->site(i);
      const Fields fields = site_fields(site);
      expect_reads(site.metrics(), "site." + site.name() + ".", fields);
      // Every site metric is either read from its field or pushed.
      EXPECT_EQ(fields.size() + std::size(kPushedSiteMetrics),
                site.metrics().size());
    }
    expect_reads(grid->metrics(), "", grid_fields(*grid));
  }
}

}  // namespace
}  // namespace gdmp::testbed
