// Shared harness for the GridFTP WAN measurements (§6).
//
// Reproduces the paper's test setup: a 45 Mbit/s CERN–ANL path with 125 ms
// RTT shared with production cross-traffic, a GSI-enabled GridFTP server
// at CERN, and the extended_get test client at ANL sweeping parallel
// streams and TCP buffer sizes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "flow/flow_engine.h"
#include "gridftp/client.h"
#include "gridftp/server.h"
#include "net/cross_traffic.h"
#include "net/topology.h"
#include "storage/disk.h"
#include "storage/disk_pool.h"

namespace gdmp::bench {

/// True when the binary was invoked with --smoke: benches shrink their
/// sweeps to one tiny data point so ctest (label `bench_smoke`) can exercise
/// every bench binary end to end in seconds.
inline bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return true;
  }
  return false;
}

/// One already-encoded JSON token; constructors cover the scalar types the
/// benches report.
struct JsonValue {
  std::string text;

  JsonValue(double v) {  // NOLINT(google-explicit-constructor)
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.8g", v);
    text = buf;
  }
  JsonValue(int v) : text(std::to_string(v)) {}  // NOLINT
  JsonValue(long v) : text(std::to_string(v)) {}  // NOLINT
  JsonValue(long long v) : text(std::to_string(v)) {}  // NOLINT
  JsonValue(unsigned long long v) : text(std::to_string(v)) {}  // NOLINT
  JsonValue(bool v) : text(v ? "true" : "false") {}  // NOLINT
  JsonValue(const char* s) : text(quote(s)) {}  // NOLINT
  JsonValue(const std::string& s) : text(quote(s)) {}  // NOLINT

  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
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
    out += '"';
    return out;
  }
};

/// Flat-record benchmark report, written as BENCH_<name>.json so perf
/// regressions diff numerically instead of scraping stdout tables. Output
/// lands in $GDMP_BENCH_OUT (default: current directory); scripts/bench.sh
/// sets it to a collection directory.
class BenchReport {
 public:
  BenchReport(std::string name, bool smoke)
      : name_(std::move(name)), smoke_(smoke) {}
  ~BenchReport() { write(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void add(std::initializer_list<std::pair<const char*, JsonValue>> fields) {
    std::string row = "    {";
    bool first = true;
    for (const auto& [key, value] : fields) {
      if (!first) row += ", ";
      first = false;
      row += JsonValue::quote(key) + ": " + value.text;
    }
    row += '}';
    rows_.push_back(std::move(row));
  }

  void write() {
    if (written_) return;
    written_ = true;
    const char* dir = std::getenv("GDMP_BENCH_OUT");
    const std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
        "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"smoke\": %s,\n  \"results\": [\n",
                 JsonValue::quote(name_).c_str(), smoke_ ? "true" : "false");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::string name_;
  bool smoke_;
  bool written_ = false;
  std::vector<std::string> rows_;
};

struct WanBenchConfig {
  BitsPerSec wan_bandwidth = 45 * kMbps;
  SimDuration one_way_delay = 62 * kMillisecond + 500 * kMicrosecond;
  Bytes wan_queue = 2816 * kKiB;
  /// Production cross-traffic sharing the link (each direction).
  BitsPerSec cross_traffic = 18 * kMbps;
  std::uint64_t seed = 1;
};

struct TransferSample {
  double mbps = 0;
  double seconds = 0;
  int attempts = 0;
  std::int64_t retransmits = 0;
  bool ok = false;
  /// Simulator events fired between issuing the get and its completion
  /// (the fluid-vs-packet cost axis bench_flow reports).
  std::uint64_t events = 0;
  /// Packets delivered over the whole run, summed over every link of the
  /// path in both directions: the packet-path work of the run.
  std::int64_t packets_delivered = 0;
};

/// Runs one extended_get: transfers `file_size` with the given stream
/// count and buffer, returns the achieved rate. With kFluid the payload
/// (and the cross traffic) moves on a FlowEngine instead of per-segment
/// TCP, same control channel and markers.
inline TransferSample run_wan_get(
    const WanBenchConfig& bench_config, Bytes file_size, int streams,
    Bytes tcp_buffer,
    flow::TransferModel model = flow::TransferModel::kPacket) {
  sim::Simulator simulator;
  net::Network network(simulator);
  net::WanConfig wan;
  wan.wan_bandwidth = bench_config.wan_bandwidth;
  wan.wan_one_way_delay = bench_config.one_way_delay;
  wan.wan_queue = bench_config.wan_queue;
  auto path = net::make_wan_path(network, "cern", "anl", wan);

  net::TcpStack server_stack(simulator, *path.host_a);
  net::TcpStack client_stack(simulator, *path.host_b);

  const bool fluid = model == flow::TransferModel::kFluid;
  std::unique_ptr<flow::FlowEngine> engine;
  if (fluid) engine = std::make_unique<flow::FlowEngine>(simulator, network);

  std::unique_ptr<net::DatagramSink> sink;
  std::unique_ptr<net::CbrSource> cbr_up, cbr_down;
  if (bench_config.cross_traffic > 0 && fluid) {
    // Fluid cross traffic: a pinned flow each way, zero per-packet events.
    for (const auto& [src, dst] : {std::pair{path.host_a, path.host_b},
                                   std::pair{path.host_b, path.host_a}}) {
      flow::FlowSpec cross;
      cross.src = src->id();
      cross.dst = dst->id();
      cross.bytes = flow::kUnboundedBytes;
      cross.pinned_rate = bench_config.cross_traffic;
      (void)engine->start(cross, [](const flow::FlowDone&) {});
    }
  } else if (bench_config.cross_traffic > 0) {
    net::CbrConfig cbr;
    cbr.rate = bench_config.cross_traffic;
    sink = std::make_unique<net::DatagramSink>(*path.host_b);
    cbr_up = std::make_unique<net::CbrSource>(network, *path.host_a,
                                              *path.host_b, cbr,
                                              bench_config.seed * 31 + 1);
    cbr_down = std::make_unique<net::CbrSource>(network, *path.host_b,
                                                *path.host_a, cbr,
                                                bench_config.seed * 31 + 2);
    cbr_up->start();
    cbr_down->start();
  }

  security::CertificateAuthority ca("BenchCA");
  constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;
  storage::Disk server_disk(simulator, storage::DiskConfig{});
  storage::DiskPool server_pool(100 * kGiB, server_disk);
  (void)server_pool.add_file("/pool/testfile", file_size,
                             0x7e57 ^ bench_config.seed, 0);

  gridftp::FtpServer server(server_stack, server_pool, ca,
                            ca.issue("/CN=cern-gridftp", kYear));
  if (!server.start().is_ok()) return {};

  gridftp::FtpClient client(client_stack, ca,
                            ca.issue("/CN=anl-client", kYear));
  gridftp::TransferOptions options;
  options.parallel_streams = streams;
  options.tcp_buffer = tcp_buffer;
  options.flow_engine = engine.get();  // null for kPacket

  TransferSample sample;
  // Let the cross traffic reach steady state before measuring.
  simulator.run_until(2 * kSecond);
  const std::uint64_t events_before = simulator.events_fired();
  client.get(path.host_a->id(), gridftp::kControlPort, "/pool/testfile",
             "/discard", /*pool=*/nullptr, options,
             [&](Result<gridftp::TransferResult> result) {
               if (result.is_ok()) {
                 sample.ok = true;
                 sample.mbps = result->mbps;
                 sample.seconds = to_seconds(result->elapsed);
                 sample.attempts = result->attempts;
                 sample.retransmits = result->retransmitted_segments;
               }
               sample.events = simulator.events_fired() - events_before;
               // Stop simulating once the measurement is in; the CBR
               // sources would otherwise churn events forever.
               simulator.request_stop();
             });
  simulator.run_until(4 * 3600 * kSecond);
  std::vector<net::Link*> links;
  network.path_links(path.host_a->id(), path.host_b->id(), links);
  network.path_links(path.host_b->id(), path.host_a->id(), links);
  for (const net::Link* link : links) {
    sample.packets_delivered += link->stats().packets_delivered;
  }
  return sample;
}

inline void print_series_header(const char* title,
                                const std::vector<int>& stream_counts) {
  std::printf("%s\n", title);
  std::printf("%-10s", "file");
  for (const int n : stream_counts) std::printf(" %7d", n);
  std::printf("  (streams)\n");
}

}  // namespace gdmp::bench
