// Replication-campaign benchmark driver.
//
// Runs one named campaign workload through the real testbed path (Grid ->
// GDMP publish/notify -> replication scheduler -> catalog -> GridFTP over
// the packet or fluid model -> storage; object replication for the
// objects workload), repeatedly, until the time budget is spent. Every
// repetition uses the same seeded inputs, so sim-time results repeat
// exactly and host-time results are reported as medians, scaled to a
// reference machine speed (see reference_kernel).
//
//   campaign --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--out DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and prints the per-layer metrics, writing
// per_layer.json, trace.json (sim-time spans of the program) and
// host_trace.json (host-time spans around the benchmark's calls into each
// layer) to DIR. The last stdout line is one JSON result object. The exit
// status is non-zero when the outcome oracle rejects a run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "objrep/selection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace {

using namespace gdmp;
using namespace gdmp::testbed;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- host clocks ----------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- reference speed ------------------------------------------------------

// Other tenants of a shared host slow memory-bound code by 10-30 % for
// minutes at a time, which would swamp any change worth measuring. A fixed
// kernel of the simulator's hot operations (binary-heap churn, ordered- and
// hash-map updates, short strings) runs before and after every repetition,
// and the repetition's host timings are scaled by kReferenceSeconds over the
// kernel's mean time. The kernel is benchmark code: a faster simulator does
// not speed it up. kReferenceSeconds is its time on an idle 2.1 GHz x86-64
// core, so scaled figures read as seconds at that speed.
constexpr double kReferenceSeconds = 0.015;

struct KernelTime {
  double cpu = 0;
  double wall = 0;
};

KernelTime reference_kernel() {
  const double wall0 = wall_now();
  const double cpu0 = cpu_now();
  std::vector<std::pair<std::int64_t, std::uint64_t>> heap;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::unordered_map<std::string, std::uint64_t> hashed;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    heap.emplace_back(static_cast<std::int64_t>(x >> 40), x);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sink += heap.back().second;
      heap.pop_back();
    }
    ordered[x % 8192] += i;
    if (i % 4 == 0) hashed["lfn://cms/" + std::to_string(x % 4096)] += i;
  }
  sink += ordered.size() + hashed.size();
  const KernelTime time{cpu_now() - cpu0, wall_now() - wall0};
  if (sink == 0) std::fprintf(stderr, "reference kernel: empty\n");
  return time;
}

// ---- workload shapes ------------------------------------------------------

struct Shape {
  std::string name;
  flow::TransferModel model = flow::TransferModel::kFluid;
  BitsPerSec producer_uplink = 155 * kMbps;
  /// Subscriber (or consumer) uplinks, cycled over the sites.
  std::vector<BitsPerSec> site_uplinks;
  int sites = 3;
  BitsPerSec cross_traffic = 0;
  int streams = 4;
  Bytes tcp_buffer = 1 * kMiB;
  int max_concurrent = 4;
  int max_per_source = 2;
  // File fan-out: `files` published in `waves` waves `wave_gap` apart.
  int files = 0;
  Bytes file_size = 1 * kMiB;
  /// Seeded per-file size spread, as a fraction of file_size.
  double size_jitter = 0.05;
  int waves = 1;
  SimDuration wave_gap = 0;
  // Object replication: a production run of `events` AOD events, then
  // `jobs` analysis selections of `fraction`, `job_gap` apart from
  // `job_start`, round-robin over the consumer sites.
  std::int64_t events = 0;
  int jobs = 0;
  double fraction = 0.01;
  SimDuration job_start = 0;
  SimDuration job_gap = 0;
};

/// Requests still open this long after the first publish count as failed.
constexpr SimDuration kHorizon = 4 * 3600 * kSecond;

bool make_shape(const std::string& name, bool smoke, Shape& shape) {
  shape.name = name;
  if (name == "fanout_packet") {
    shape.model = flow::TransferModel::kPacket;
    shape.site_uplinks = {45 * kMbps, 45 * kMbps, 10 * kMbps};
    shape.sites = 3;
    shape.cross_traffic = 8 * kMbps;
    shape.files = smoke ? 8 : 64;
    shape.file_size = 256 * kKiB;
    shape.waves = 4;
    shape.wave_gap = 15 * kSecond;
  } else if (name == "fanout_fluid") {
    shape.site_uplinks = {45 * kMbps, 45 * kMbps, 10 * kMbps};
    // The prototype's waves of 125 files, so each scheduler queue holds
    // hundreds of requests at caps 4/2, at 3 subscribers instead of 15 and
    // 4 waves instead of 8: the busy-deferral bounces per replication
    // depend on the queue depth, not on the subscriber count. (At 8 waves
    // the traced repetition alone takes about a minute.)
    shape.sites = 3;
    shape.files = smoke ? 16 : 500;
    shape.waves = 4;
    shape.wave_gap = 30 * kSecond;
  } else if (name == "wide_fluid") {
    shape.producer_uplink = 2488 * kMbps;
    shape.site_uplinks = {155 * kMbps, 45 * kMbps};
    shape.sites = smoke ? 8 : 63;
    shape.streams = 16;
    shape.max_concurrent = 32;
    shape.max_per_source = 32;
    shape.files = smoke ? 4 : 16;
    shape.file_size = 64 * kMiB;
    // Flow renegotiation work follows the order in which the 1008 flows
    // finish. At +-5 % sizes it moves by +-8 % from seed to seed (so does
    // cpu_s); at +-0.2 % by +-4 %.
    shape.size_jitter = 0.002;
  } else if (name == "objects_fluid") {
    // One consumer site: the source names packed temporaries after the
    // consumer's request counter, so concurrent jobs from two consumers
    // can collide on a temporary and fail.
    shape.site_uplinks = {45 * kMbps};
    shape.sites = 1;
    shape.events = smoke ? 20'000 : 1'000'000;
    shape.fraction = smoke ? 0.01 : 0.001;
    shape.jobs = smoke ? 16 : 512;
    shape.job_start = 60 * kSecond;
    shape.job_gap = 15 * kSecond;
  } else {
    return false;
  }
  return true;
}

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest of p99.9/p99/p90 that leaves at least ten samples beyond it
/// (p90 when even that leaves fewer).
struct Tail {
  double value = 0;
  const char* label = "p90";
  std::size_t beyond = 0;
};

Tail tail_of(const std::vector<double>& sorted) {
  static constexpr std::pair<double, const char*> kLevels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  const double n = static_cast<double>(sorted.size());
  for (const auto& [p, label] : kLevels) {
    const auto beyond =
        static_cast<std::size_t>(std::floor(n * (1.0 - p) + 1e-9));
    if (beyond >= 10 || p == 0.9) {
      return Tail{percentile(sorted, p), label, beyond};
    }
  }
  return {};
}

// ---- metrics --------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

std::string format_number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : "-1e308";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + obs::json_escape(name) + "\": {\"value\": " +
           format_number(metric.value) + ", \"unit\": \"" +
           obs::json_escape(metric.unit) + "\"}";
  }
  return out + "}";
}

// ---- host-time spans around the benchmark's calls into the layers -------

/// Accumulates host time per layer-call kind and, when recording, keeps one
/// span per call for the host-time Chrome trace.
class HostProbe {
 public:
  struct Span {
    const char* name;
    double start;
    double duration;
  };

  void reset(bool record) {
    totals_.clear();
    spans_.clear();
    record_ = record;
    origin_ = wall_now();
  }

  template <typename F>
  void time(const char* name, F&& fn) {
    const double start = wall_now();
    fn();
    const double duration = wall_now() - start;
    totals_[name] += duration;
    if (record_) spans_.push_back(Span{name, start - origin_, duration});
  }

  double total(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::map<std::string, double> totals_;
  std::vector<Span> spans_;
  bool record_ = false;
  double origin_ = 0;
};

bool write_host_trace(const std::string& path,
                      const std::vector<HostProbe::Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  std::uint64_t id = 1;
  for (const HostProbe::Span& span : spans) {
    out << (id == 1 ? "\n" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"ts\": " << format_number(span.start * 1e6)
        << ", \"dur\": " << format_number(span.duration * 1e6)
        << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span_id\": " << id
        << "}}";
    ++id;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

// ---- one campaign repetition ---------------------------------------------

/// One request's schedule and outcome (a (file, subscriber) replication or
/// an analysis job).
struct Request {
  SimTime due = 0;
  SimTime done = -1;
  bool ok = false;
};

struct RepResult {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double raw_cpu_s = 0;  // cpu_s before reference scaling
  double makespan_sim_s = 0;
  std::vector<double> latencies;  // sorted, failures as +inf
  std::int64_t requested = 0;
  std::int64_t failed = 0;        // failed + dead-lettered + oracle-rejected
  std::vector<std::string> violations;
  MetricMap layers;               // per-layer counts (traced mode)
  double run_s = 0;               // host time inside run_until
  double publish_s = 0;
  double submit_s = 0;
  double objrep_s = 0;
};

class Campaign {
 public:
  Campaign(const Shape& shape, std::uint64_t seed, HostProbe& probe)
      : shape_(shape), seed_(seed), probe_(probe) {}

  /// Builds, runs and checks one campaign. `trace` enables the program's
  /// sim-time tracer for this repetition.
  RepResult run(bool trace);

 private:
  GridConfig grid_config() const;
  bool setup_fanout(Grid& grid);
  bool setup_objects(Grid& grid);
  void drive_fanout(Grid& grid);
  void drive_objects(Grid& grid);
  void settle(Grid& grid);
  void check_fanout(Grid& grid, RepResult& result);
  void check_objects(Grid& grid, RepResult& result);
  void collect_layers(Grid& grid, bool traced, RepResult& result);

  const Shape& shape_;
  std::uint64_t seed_;
  HostProbe& probe_;

  SimTime start_ = 0;
  std::vector<Request> requests_;
  std::int64_t outstanding_ = 0;
  // Fan-out inputs.
  std::vector<core::PublishedFile> files_;
  std::unordered_map<LogicalFileName, std::size_t> file_index_;
  // Object-replication inputs and outcomes.
  std::vector<core::PublishedFile> run_files_;
  std::vector<std::vector<ObjectId>> selections_;
  std::vector<objrep::ObjectReplicationService::Outcome> outcomes_;
  int subscribed_ = 0;
  int indexed_ = 0;
  bool published_ = false;
  // Transfer-channel observations (traced repetitions only).
  std::int64_t perf_markers_ = 0;
  Bytes crc_bytes_ = 0;
  std::uint64_t events_at_start_ = 0;
};

GridConfig Campaign::grid_config() const {
  GridConfig config;
  config.seed = seed_;
  config.transfer_model = shape_.model;
  config.event_count = shape_.events > 0 ? shape_.events : 1000;
  net::WanConfig wan;
  // Two WAN legs in series make the 125 ms RTT of §6.
  wan.wan_one_way_delay = 31 * kMillisecond + 250 * kMicrosecond;
  const auto add_site = [&](std::string name, BitsPerSec uplink,
                            BitsPerSec cross) {
    GridSiteSpec spec;
    spec.name = std::move(name);
    spec.wan = wan;
    spec.wan.wan_bandwidth = uplink;
    spec.cross_traffic = cross;
    spec.site.gdmp.transfer.parallel_streams = shape_.streams;
    spec.site.gdmp.transfer.tcp_buffer = shape_.tcp_buffer;
    spec.site.sched.max_concurrent = shape_.max_concurrent;
    spec.site.sched.max_per_source = shape_.max_per_source;
    spec.site.sched.seed = seed_ ^ 0x5c4edULL;
    spec.site.objrep.copier.max_output_file = 16 * kMiB;
    config.sites.push_back(std::move(spec));
  };
  add_site("t0", shape_.producer_uplink, 0);
  for (int i = 0; i < shape_.sites; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "t1-%02d", i);
    add_site(name,
             shape_.site_uplinks[static_cast<std::size_t>(i) %
                                 shape_.site_uplinks.size()],
             shape_.cross_traffic);
  }
  return config;
}

RepResult Campaign::run(bool trace) {
  RepResult result;
  // The tracer keeps the last traced repetition's spans for export.
  obs::Tracer& tracer = obs::Tracer::global();

  const double setup_begin = wall_now();
  auto grid = std::make_unique<Grid>(grid_config());
  if (trace) {
    tracer.clear();
    tracer.set_clock([sim = &grid->simulator()] { return sim->now(); });
    tracer.enable(true);
  }
  bool ready = grid->start().is_ok();
  if (ready) {
    ready = shape_.jobs > 0 ? setup_objects(*grid) : setup_fanout(*grid);
  }
  result.setup_s = wall_now() - setup_begin;
  if (!ready) {
    result.violations.push_back("setup failed");
  } else {
    if (trace) {
      for (std::size_t i = 1; i < grid->site_count(); ++i) {
        obs::TransferChannel::Observer observer;
        observer.on_perf = [this](const obs::PerfMarker&) { ++perf_markers_; };
        observer.on_complete = [this](const obs::TransferSummary& summary) {
          if (summary.ok) crc_bytes_ += summary.bytes;
        };
        grid->site(i).gdmp_server().transfer_channel().subscribe(
            std::move(observer));
      }
    }
    events_at_start_ = grid->simulator().events_fired();
    const double wall0 = wall_now();
    const double cpu0 = cpu_now();
    if (shape_.jobs > 0) {
      drive_objects(*grid);
    } else {
      drive_fanout(*grid);
    }
    result.cpu_s = cpu_now() - cpu0;
    result.wall_s = wall_now() - wall0;

    SimTime last = start_;
    for (const Request& request : requests_) {
      result.latencies.push_back(
          request.ok ? to_seconds(request.done - request.due) : kInf);
      if (request.ok) last = std::max(last, request.done);
      if (!request.ok) ++result.failed;
    }
    std::sort(result.latencies.begin(), result.latencies.end());
    result.makespan_sim_s = to_seconds(last - start_);
    result.requested = static_cast<std::int64_t>(requests_.size());
    collect_layers(*grid, trace, result);
    if (shape_.jobs > 0) {
      check_objects(*grid, result);
    } else {
      check_fanout(*grid, result);
    }
  }
  result.run_s = probe_.total("run_until");
  result.publish_s = probe_.total("gdmp.publish");
  result.submit_s = probe_.total("sched.submit");
  result.objrep_s = probe_.total("objrep.replicate_objects") +
                    probe_.total("objrep.refresh_index");
  result.failed = std::min<std::int64_t>(
      result.requested,
      result.failed + static_cast<std::int64_t>(result.violations.size()));
  if (result.requested == 0) result.requested = 1;

  // The grid goes first: its destructor may still touch the tracer clock.
  grid.reset();
  tracer.enable(false);
  tracer.set_clock(nullptr);
  return result;
}

bool Campaign::setup_fanout(Grid& grid) {
  Site& producer = grid.site(0);
  const std::size_t subscribers = grid.site_count() - 1;
  for (std::size_t i = 1; i <= subscribers; ++i) {
    probe_.time("gdmp.subscribe", [&] {
      grid.site(i).gdmp().subscribe(producer.host().id(),
                                    producer.gdmp_server().config().server_port,
                                    [this](Status status) {
                                      if (status.is_ok()) ++subscribed_;
                                    });
    });
  }
  grid.run_until(grid.simulator().now() + 10 * kSecond);
  if (subscribed_ != static_cast<int>(subscribers)) return false;

  // Seeded inputs: per-file size jitter and per-file content.
  Rng rng(seed_ ^ 0xf11e5ULL);
  for (int f = 0; f < shape_.files; ++f) {
    core::PublishedFile file;
    file.lfn = "lfn://cms/campaign/" + std::to_string(f);
    file.local_path = producer.gdmp_server().local_path_for(file.lfn);
    const auto size = static_cast<Bytes>(
        static_cast<double>(shape_.file_size) *
        rng.uniform(1 - shape_.size_jitter, 1 + shape_.size_jitter));
    const SimTime now = grid.simulator().now();
    if (!producer.pool().add_file(file.local_path, size, rng.next(), now)
             .is_ok()) {
      return false;
    }
    file_index_.emplace(file.lfn, files_.size());
    files_.push_back(std::move(file));
  }
  requests_.resize(files_.size() * subscribers);

  // Each notification goes straight to the subscriber's scheduler, the
  // same submit(lfn) the auto-replication enqueue makes, with a completion
  // callback per (file, subscriber).
  for (std::size_t i = 1; i <= subscribers; ++i) {
    Site& site = grid.site(i);
    site.gdmp_server().on_notification =
        [this, &grid, &site, i, subscribers](const std::string&,
                                             const core::PublishedFile& file) {
          const auto it = file_index_.find(file.lfn);
          if (it == file_index_.end()) return;
          const std::size_t slot = it->second * subscribers + (i - 1);
          probe_.time("sched.submit", [&] {
            site.scheduler().submit(
                file.lfn, 0,
                [this, &grid, slot](Result<gridftp::TransferResult> outcome) {
                  Request& request = requests_[slot];
                  request.done = grid.simulator().now();
                  request.ok = outcome.is_ok();
                  --outstanding_;
                });
          });
        };
  }
  return true;
}

void Campaign::settle(Grid& grid) {
  const SimTime deadline = start_ + kHorizon;
  probe_.time("run_until", [&] {
    while (outstanding_ > 0 && grid.simulator().now() < deadline) {
      grid.run_until(grid.simulator().now() + kSecond);
    }
    // Quiesce: let acknowledgements, releases and source clean-up land.
    grid.run_until(grid.simulator().now() + 5 * kSecond);
  });
}

void Campaign::drive_fanout(Grid& grid) {
  Site& producer = grid.site(0);
  const std::size_t subscribers = grid.site_count() - 1;
  start_ = grid.simulator().now();
  outstanding_ = static_cast<std::int64_t>(requests_.size());
  const std::size_t per_wave =
      (files_.size() + static_cast<std::size_t>(shape_.waves) - 1) /
      static_cast<std::size_t>(shape_.waves);
  for (int w = 0; w < shape_.waves; ++w) {
    const SimTime due = start_ + w * shape_.wave_gap;
    probe_.time("run_until", [&] { grid.run_until(due); });
    const std::size_t lo = static_cast<std::size_t>(w) * per_wave;
    const std::size_t hi = std::min(files_.size(), lo + per_wave);
    if (lo >= hi) break;
    for (std::size_t f = lo; f < hi; ++f) {
      for (std::size_t s = 0; s < subscribers; ++s) {
        requests_[f * subscribers + s].due = due;
      }
    }
    std::vector<core::PublishedFile> batch(
        files_.begin() + static_cast<std::ptrdiff_t>(lo),
        files_.begin() + static_cast<std::ptrdiff_t>(hi));
    probe_.time("gdmp.publish", [&] {
      producer.gdmp().publish(std::move(batch), [](Status) {});
    });
  }
  settle(grid);
}

bool Campaign::setup_objects(Grid& grid) {
  Site& producer = grid.site(0);
  ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = shape_.events;
  production.run_name = "aod-" + std::to_string(seed_);
  probe_.time("testbed.produce_run", [&] {
    run_files_ = produce_run(producer, production);
  });
  if (run_files_.empty()) return false;

  Rng rng(seed_ ^ 0x0b1ec7ULL);
  objrep::SelectionConfig selection;
  selection.fraction = shape_.fraction;
  selection.tier = objstore::Tier::kAod;
  for (int j = 0; j < shape_.jobs; ++j) {
    selections_.push_back(objrep::select_objects(grid.model(), selection, rng));
  }
  requests_.resize(selections_.size());
  outcomes_.resize(selections_.size());
  return true;
}

void Campaign::drive_objects(Grid& grid) {
  Site& producer = grid.site(0);
  const std::size_t consumers = grid.site_count() - 1;
  start_ = grid.simulator().now();
  outstanding_ = static_cast<std::int64_t>(requests_.size());

  // The first publish: tier-0 announces the run, and every consumer pulls
  // tier-0's object index.
  probe_.time("gdmp.publish", [&] {
    producer.gdmp().publish(run_files_, [this](Status status) {
      published_ = status.is_ok();
    });
  });
  for (std::size_t c = 1; c <= consumers; ++c) {
    probe_.time("objrep.refresh_index", [&] {
      grid.site(c).objrep().refresh_index_from(
          producer.name(), producer.host().id(),
          producer.gdmp_server().config().server_port, [this](Status status) {
            if (status.is_ok()) ++indexed_;
          });
    });
  }
  for (std::size_t j = 0; j < selections_.size(); ++j) {
    const SimTime due = start_ + shape_.job_start +
                        static_cast<SimTime>(j) * shape_.job_gap;
    probe_.time("run_until", [&] { grid.run_until(due); });
    requests_[j].due = due;
    Site& consumer = grid.site(1 + j % consumers);
    probe_.time("objrep.replicate_objects", [&] {
      consumer.objrep().replicate_objects(
          selections_[j],
          [this, &grid, j](
              Result<objrep::ObjectReplicationService::Outcome> outcome) {
            requests_[j].done = grid.simulator().now();
            requests_[j].ok = outcome.is_ok();
            if (outcome.is_ok()) outcomes_[j] = *outcome;
            --outstanding_;
          });
    });
  }
  settle(grid);
}

void Campaign::check_fanout(Grid& grid, RepResult& result) {
  Site& producer = grid.site(0);
  const catalog::ShardedCatalog& catalog = grid.catalog().catalog();
  const std::string& collection = producer.gdmp_server().config().collection;
  for (const core::PublishedFile& file : files_) {
    const auto source = producer.pool().peek(file.local_path);
    if (!source.is_ok()) {
      result.violations.push_back("producer lost " + file.lfn);
      continue;
    }
    const std::uint32_t crc = source->crc();
    const auto pfns = catalog.lookup(collection, file.lfn);
    const auto listed = [&](Site& site) {
      if (!pfns.is_ok()) return false;
      const std::string prefix = site.gdmp_server().url_prefix();
      return std::any_of(pfns->begin(), pfns->end(), [&](const auto& pfn) {
        return pfn.compare(0, prefix.size(), prefix) == 0;
      });
    };
    if (!listed(producer)) {
      result.violations.push_back("catalog misses producer for " + file.lfn);
    }
    for (std::size_t i = 1; i < grid.site_count(); ++i) {
      Site& site = grid.site(i);
      const auto replica =
          site.pool().peek(site.gdmp_server().local_path_for(file.lfn));
      if (!replica.is_ok() || replica->crc() != crc) {
        result.violations.push_back(site.name() + " lacks a good " + file.lfn);
      }
      if (!listed(site)) {
        result.violations.push_back("catalog misses " + site.name() + " for " +
                                    file.lfn);
      }
    }
  }
  for (std::size_t i = 1; i < grid.site_count(); ++i) {
    const sched::ReplicationScheduler& scheduler = grid.site(i).scheduler();
    if (!scheduler.idle()) {
      result.violations.push_back(grid.site(i).name() + " scheduler not idle");
    }
    if (!scheduler.dead_letters().empty()) {
      result.violations.push_back(grid.site(i).name() + " has dead letters");
    }
  }
}

void Campaign::check_objects(Grid& grid, RepResult& result) {
  Site& producer = grid.site(0);
  const std::size_t consumers = grid.site_count() - 1;
  if (!published_) result.violations.push_back("run publish failed");
  if (indexed_ != static_cast<int>(consumers)) {
    result.violations.push_back("index refresh failed");
  }
  for (std::size_t j = 0; j < selections_.size(); ++j) {
    Site& consumer = grid.site(1 + j % consumers);
    const objstore::ObjectFileCatalog& local = consumer.federation()->catalog();
    const bool resolved =
        std::all_of(selections_[j].begin(), selections_[j].end(),
                    [&](ObjectId id) { return local.contains(id); });
    if (!resolved) {
      result.violations.push_back("job " + std::to_string(j) +
                                  " objects not resolvable at " +
                                  consumer.name());
    }
  }
  const std::string& temp = producer.config().objrep.temp_prefix;
  if (!producer.pool().list(temp).empty()) {
    result.violations.push_back("source temporaries left under " + temp);
  }
}

// ---- per-layer collection -------------------------------------------------

/// Sums every site registry counter by its name below "site.<name>.".
std::map<std::string, double> site_counters(Grid& grid) {
  std::map<std::string, double> sums;
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    const std::string prefix = "site." + grid.site(i).name() + ".";
    for (const auto& entry : grid.site(i).metrics().snapshot().entries) {
      if (entry.kind != obs::MetricKind::kCounter) continue;
      if (entry.name.compare(0, prefix.size(), prefix) != 0) continue;
      sums[entry.name.substr(prefix.size())] +=
          static_cast<double>(entry.counter);
    }
  }
  return sums;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sim-time stage breakdown from the program's spans: count, p50, tail and
/// total self time (duration minus the union of its children's intervals).
void stage_breakdown(const obs::Tracer& tracer, SimTime now, MetricMap& out) {
  static constexpr const char* kStages[] = {
      "sched.queue_wait", "gdmp.replicate",       "gridftp.transfer",
      "gridftp.stream",   "gridftp.crc_check",    "gdmp.catalog_update",
      "rpc.request"};
  const auto& spans = tracer.spans();
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent.valid()) children[spans[i].parent.value].push_back(i);
  }
  const auto end_of = [&](const obs::Span& s) { return s.open ? now : s.end; };
  for (const char* stage : kStages) {
    std::vector<double> durations;
    double self = 0;
    for (const obs::Span& span : spans) {
      if (span.name != stage) continue;
      const SimTime end = end_of(span);
      durations.push_back(to_seconds(end - span.start));
      std::vector<std::pair<SimTime, SimTime>> covered;
      if (const auto it = children.find(span.id.value); it != children.end()) {
        for (const std::size_t c : it->second) {
          const SimTime lo = std::max(spans[c].start, span.start);
          const SimTime hi = std::min(end_of(spans[c]), end);
          if (hi > lo) covered.emplace_back(lo, hi);
        }
      }
      std::sort(covered.begin(), covered.end());
      SimTime union_len = 0;
      SimTime reach = span.start;
      for (const auto& [lo, hi] : covered) {
        if (hi <= reach) continue;
        union_len += hi - std::max(lo, reach);
        reach = hi;
      }
      self += to_seconds(end - span.start - union_len);
    }
    std::sort(durations.begin(), durations.end());
    const std::string prefix = std::string("stage.") + stage;
    out[prefix + ".count"] = {static_cast<double>(durations.size()), "count"};
    out[prefix + ".p50_sim_s"] = {percentile(durations, 0.5), "sim_s"};
    out[prefix + ".tail_sim_s"] = {tail_of(durations).value, "sim_s"};
    out[prefix + ".self_sim_s"] = {self, "sim_s"};
  }
}

void Campaign::collect_layers(Grid& grid, bool traced, RepResult& result) {
  MetricMap& m = result.layers;
  const auto put = [&](const std::string& name, auto value, const char* unit) {
    m[name] = {static_cast<double>(value), unit};
  };
  const auto count = [&](const std::string& name, auto value) {
    put(name, value, "count");
  };
  const auto bytes = [&](const std::string& name, auto value) {
    put(name, value, "bytes");
  };
  const auto share = [&](const std::string& name, auto num, auto den) {
    put(name, ratio(static_cast<double>(num), static_cast<double>(den)),
        "ratio");
  };
  const std::uint64_t events =
      grid.simulator().events_fired() - events_at_start_;
  count("sim.events", events);
  share("sim.events_per_request", events, requests_.size());

  const std::map<std::string, double> sites = site_counters(grid);
  const auto site = [&](const std::string& name) {
    const auto it = sites.find(name);
    return it == sites.end() ? 0.0 : it->second;
  };
  for (const char* name :
       {"segments_sent", "retransmits", "timeouts", "connections_opened"}) {
    count(std::string("net.tcp.") + name, site(std::string("net.tcp.") + name));
  }
  share("net.retransmit_ratio", site("net.tcp.retransmits"),
        site("net.tcp.segments_sent"));
  std::int64_t dropped = 0;
  Bytes delivered = 0;
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (const net::Link* link = grid.uplink(i)) {
      dropped += link->stats().packets_dropped;
      delivered += link->stats().bytes_delivered;
    }
  }
  count("net.uplink.packets_dropped", dropped);
  bytes("net.uplink.bytes_delivered", delivered);

  flow::FlowEngineStats flows;
  if (const flow::FlowEngine* engine = grid.flow_engine()) {
    flows = engine->stats();
  }
  count("flow.flows_started", flows.flows_started);
  count("flow.renegotiations", flows.renegotiations);
  count("flow.flows_recomputed", flows.flows_recomputed);
  count("flow.links_recomputed", flows.links_recomputed);
  share("flow.flows_per_renegotiation", flows.flows_recomputed,
        flows.renegotiations);

  count("gridftp.retrievals", site("gridftp.retrievals"));
  bytes("gridftp.bytes_sent", site("gridftp.bytes_sent"));
  count("gridftp.blocks_corrupted", site("gridftp.blocks_corrupted"));
  count("gridftp.restarts", site("transfer.restarts"));
  if (traced) {
    bytes("gridftp.crc_bytes", crc_bytes_);
    count("gridftp.perf_markers", perf_markers_);
  }

  core::GdmpServerStats gdmp;
  sched::SchedulerStats sched;
  core::CatalogClient::LookupCache::Stats cache;
  storage::DiskPoolStats pool;
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    Site& s = grid.site(i);
    const core::GdmpServerStats& g = s.gdmp_server().stats();
    gdmp.files_published += g.files_published;
    gdmp.notifications_sent += g.notifications_sent;
    gdmp.files_replicated += g.files_replicated;
    gdmp.replication_failures += g.replication_failures;
    gdmp.stage_requests_served += g.stage_requests_served;
    const sched::SchedulerStats& q = s.scheduler().stats();
    sched.submitted += q.submitted;
    sched.completed += q.completed;
    sched.retries += q.retries;
    sched.dead_lettered += q.dead_lettered;
    sched.busy_deferrals += q.busy_deferrals;
    sched.peak_active = std::max(sched.peak_active, q.peak_active);
    const auto& c = s.gdmp_server().catalog().lookup_cache_stats();
    cache.hits += c.hits;
    cache.misses += c.misses;
    cache.stale_probes += c.stale_probes;
    cache.evictions += c.evictions;
    const storage::DiskPoolStats& p = s.pool().stats();
    pool.hits += p.hits;
    pool.misses += p.misses;
    pool.evictions += p.evictions;
  }
  // Every RPC server: each site's GDMP and GridFTP control servers plus the
  // central catalog service (publish, add_replica, lookup, list and their
  // batched forms).
  const double site_requests = site("gdmp.rpc.requests_served") +
                               site("gridftp.rpc.requests_served");
  const double catalog_requests =
      static_cast<double>(grid.catalog().operations_served());
  count("rpc.requests_served", site_requests + catalog_requests);
  count("rpc.catalog_requests_served", catalog_requests);
  count("rpc.auth_failures", site("gdmp.rpc.auth_failures") +
                                 site("gridftp.rpc.auth_failures"));
  share("rpc.requests_per_replication", site_requests + catalog_requests,
        gdmp.files_replicated);

  count("catalog.cache.hits", cache.hits);
  count("catalog.cache.misses", cache.misses);
  count("catalog.cache.stale_revalidate", cache.stale_probes);
  count("catalog.cache.evictions", cache.evictions);
  share("catalog.cache_hit_ratio", cache.hits,
        cache.hits + cache.misses + cache.stale_probes);

  count("gdmp.files_published", gdmp.files_published);
  count("gdmp.notifications_sent", gdmp.notifications_sent);
  count("gdmp.files_replicated", gdmp.files_replicated);
  count("gdmp.replication_failures", gdmp.replication_failures);
  count("gdmp.stage_requests_served", gdmp.stage_requests_served);

  count("sched.submitted", sched.submitted);
  count("sched.completed", sched.completed);
  count("sched.retries", sched.retries);
  count("sched.dead_lettered", sched.dead_lettered);
  count("sched.busy_deferrals", sched.busy_deferrals);
  count("sched.peak_active", sched.peak_active);
  share("sched.dispatch_yield", sched.completed,
        sched.completed + sched.busy_deferrals + sched.retries);

  count("storage.pool.hits", pool.hits);
  count("storage.pool.misses", pool.misses);
  count("storage.pool.evictions", pool.evictions);

  objrep::ObjectReplicationService::Outcome objects;
  for (const auto& outcome : outcomes_) {
    objects.objects_requested += outcome.objects_requested;
    objects.objects_already_local += outcome.objects_already_local;
    objects.chunks += outcome.chunks;
    objects.payload_bytes += outcome.payload_bytes;
    objects.transferred_bytes += outcome.transferred_bytes;
  }
  count("objrep.jobs", selections_.size());
  count("objrep.objects_requested", objects.objects_requested);
  count("objrep.objects_already_local", objects.objects_already_local);
  count("objrep.chunks", objects.chunks);
  bytes("objrep.payload_bytes", objects.payload_bytes);
  bytes("objrep.transferred_bytes", objects.transferred_bytes);
  share("objrep.packing_efficiency", objects.payload_bytes,
        objects.transferred_bytes);

  if (traced) {
    const obs::Tracer& tracer = obs::Tracer::global();
    stage_breakdown(tracer, grid.simulator().now(), m);
    count("obs.spans", tracer.spans().size());
    count("obs.open_spans_end", tracer.open_spans());
    count("obs.orphan_ends", tracer.orphan_ends());
    if (tracer.open_spans() != 0 || tracer.orphan_ends() != 0) {
      result.violations.push_back("trace has open spans or orphan ends");
    }
  }
}

// ---- driver ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out = ".";
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      options.out = argv[++i];
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

void print_metric(const std::string& name, const Metric& metric,
                  const std::string& note = "") {
  std::printf("  %-38s %16.6g %-6s %s\n", name.c_str(), metric.value,
              metric.unit.c_str(), note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  Shape shape;
  if (!parse(argc, argv, options) ||
      !make_shape(options.workload, options.smoke, shape)) {
    std::fprintf(stderr,
                 "usage: campaign --workload fanout_packet|fanout_fluid|"
                 "wide_fluid|objects_fluid --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--out DIR]\n");
    return 2;
  }

  // Repetitions until the budget is spent (at least one; in traced mode at
  // least one untraced and one traced, alternating). A first warm-up
  // repetition fills the allocator and caches; its timings are dropped.
  HostProbe probe;
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<HostProbe::Span> host_spans;
  const double begin = wall_now();
  bool warm = false;
  bool trace_next = false;
  KernelTime before = reference_kernel();
  while (true) {
    const bool trace = options.trace && trace_next;
    probe.reset(trace);
    Campaign campaign(shape, options.seed, probe);
    RepResult rep = campaign.run(trace);
    const KernelTime after = reference_kernel();
    rep.raw_cpu_s = rep.cpu_s;
    rep.cpu_s *= 2 * kReferenceSeconds / (before.cpu + after.cpu);
    const double wall_scale =
        2 * kReferenceSeconds / (before.wall + after.wall);
    for (double* host_time : {&rep.setup_s, &rep.wall_s, &rep.run_s,
                              &rep.publish_s, &rep.submit_s, &rep.objrep_s}) {
      *host_time *= wall_scale;
    }
    before = after;
    if (trace) host_spans = probe.spans();
    const bool bad = !rep.violations.empty() || rep.failed > 0;
    std::fprintf(stderr,
                 "rep%s traced=%d setup_s=%.4f cpu_s=%.4f wall_s=%.4f "
                 "unscaled_cpu_s=%.4f\n",
                 warm ? "" : " (warm-up)", trace ? 1 : 0, rep.setup_s,
                 rep.cpu_s, rep.wall_s, rep.raw_cpu_s);
    if (!warm && !bad) {
      warm = true;
      continue;
    }
    (trace ? traced : plain).push_back(std::move(rep));
    if (bad) break;
    trace_next = !trace_next;
    const bool have_all = !plain.empty() && (!options.trace || !traced.empty());
    if (have_all && wall_now() - begin >= options.seconds) break;
  }

  const RepResult& last = (options.trace && !traced.empty()) ? traced.back()
                                                             : plain.back();
  // Host timings are medians over the repetitions, which repeat the same
  // campaign exactly in sim time.
  const auto collect = [](const std::vector<RepResult>& reps, auto field) {
    std::vector<double> values;
    for (const RepResult& rep : reps) values.push_back(rep.*field);
    return median(std::move(values));
  };
  // A request that failed or was still open at the horizon fails the run
  // as much as an oracle violation does.
  const std::vector<const RepResult*> checked{&plain.back(), &last};
  bool correct = true;
  for (const RepResult* rep : checked) {
    for (const std::string& violation : rep->violations) {
      std::printf("ORACLE: %s\n", violation.c_str());
    }
    if (rep->failed > 0) {
      std::printf("ORACLE: %lld of %lld requests failed\n",
                  static_cast<long long>(rep->failed),
                  static_cast<long long>(rep->requested));
    }
    correct = correct && rep->violations.empty() && rep->failed == 0;
  }

  const Tail tail = tail_of(last.latencies);
  std::printf("campaign %s seed=%llu reps=%zu traced_reps=%zu requests=%lld\n",
              shape.name.c_str(), static_cast<unsigned long long>(options.seed),
              plain.size(), traced.size(),
              static_cast<long long>(last.requested));
  MetricMap metrics;
  if (!options.trace) {
    metrics["setup_s"] = {collect(plain, &RepResult::setup_s), "s"};
    metrics["wall_s"] = {collect(plain, &RepResult::wall_s), "s"};
    metrics["cpu_s"] = {collect(plain, &RepResult::cpu_s), "s"};
    metrics["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
    metrics["makespan_sim_s"] = {last.makespan_sim_s, "sim_s"};
    metrics["latency_p50_sim_s"] = {percentile(last.latencies, 0.5), "sim_s"};
    metrics["latency_tail_sim_s"] = {tail.value, "sim_s"};
    const std::string reps = "median of " + std::to_string(plain.size()) +
                             ", at reference speed";
    for (const auto& [name, metric] : metrics) {
      std::string note;
      if (name == "latency_tail_sim_s") {
        note = std::string(tail.label) + ", " + std::to_string(tail.beyond) +
               " samples beyond";
      } else if (metric.unit == "s") {
        note = reps;
      }
      print_metric(name, metric, note);
    }
    print_metric("unscaled_cpu_s", {collect(plain, &RepResult::raw_cpu_s), "s"},
                 "median, as measured");
    print_metric("failed_ratio",
                 {ratio(static_cast<double>(last.failed),
                        static_cast<double>(last.requested)),
                  "fraction"});
  } else {
    metrics = last.layers;
    metrics["host.setup_s"] = {collect(plain, &RepResult::setup_s), "s"};
    metrics["host.publish_call_s"] = {collect(plain, &RepResult::publish_s),
                                      "s"};
    metrics["host.submit_call_s"] = {collect(plain, &RepResult::submit_s),
                                     "s"};
    metrics["host.objrep_call_s"] = {collect(plain, &RepResult::objrep_s),
                                     "s"};
    const double run_s = collect(plain, &RepResult::run_s);
    metrics["host.run_s"] = {run_s, "s"};
    metrics["sim.ns_per_event"] = {
        1e9 * ratio(run_s, metrics["sim.events"].value), "ns"};
    metrics["obs.trace_overhead"] = {
        ratio(collect(traced, &RepResult::cpu_s),
              collect(plain, &RepResult::cpu_s)) - 1,
        "ratio"};
    for (const auto& [name, metric] : metrics) print_metric(name, metric);

    const std::string dir = options.out + "/";
    std::ofstream layers(dir + "per_layer.json");
    layers << "{\"workload\": \"" << shape.name << "\", \"seed\": "
           << options.seed << ", \"metrics\": " << metrics_json(metrics)
           << "}\n";
    const bool wrote =
        static_cast<bool>(layers) &&
        obs::Tracer::global().write_chrome_trace(dir + "trace.json") &&
        write_host_trace(dir + "host_trace.json", host_spans);
    if (!wrote) {
      std::fprintf(stderr, "campaign: cannot write traces under %s\n",
                   options.out.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(last.requested),
              static_cast<long long>(last.failed),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
