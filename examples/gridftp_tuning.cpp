// GridFTP WAN tuning explorer (§6): computes the RTT x bandwidth rule,
// then lets you see the effect of buffers and parallel streams on one
// transfer, with the live throughput timeline built from the client's
// perf markers.
//
//   $ ./gridftp_tuning [streams] [buffer_kib] [file_mib]
#include <cstdio>
#include <cstdlib>

#include "common/stats.h"
#include "common/string_util.h"

#include "../bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace gdmp;
  using namespace gdmp::bench;

  const int streams = argc > 1 ? std::atoi(argv[1]) : 4;
  const Bytes buffer = (argc > 2 ? std::atoll(argv[2]) : 256) * kKiB;
  const Bytes file_size = (argc > 3 ? std::atoll(argv[3]) : 50) * kMiB;

  WanBenchConfig config;
  const double rtt_s = 2 * to_seconds(config.one_way_delay);
  const double optimal_buffer =
      rtt_s * config.wan_bandwidth / 8.0;  // bytes
  std::printf("link: %.0f Mbit/s, RTT %.0f ms, cross traffic %.0f Mbit/s\n",
              config.wan_bandwidth / 1e6, rtt_s * 1e3,
              config.cross_traffic / 1e6);
  std::printf("optimal buffer (RTT x bottleneck): %s\n",
              format_bytes(static_cast<long long>(optimal_buffer)).c_str());
  std::printf("requested: %d streams, %s buffers, %s file\n\n", streams,
              format_bytes(buffer).c_str(), format_bytes(file_size).c_str());

  // Run the transfer with instrumentation.
  sim::Simulator simulator;
  net::Network network(simulator);
  net::WanConfig wan;
  wan.wan_bandwidth = config.wan_bandwidth;
  wan.wan_one_way_delay = config.one_way_delay;
  wan.wan_queue = config.wan_queue;
  auto path = net::make_wan_path(network, "cern", "anl", wan);
  net::TcpStack server_stack(simulator, *path.host_a);
  net::TcpStack client_stack(simulator, *path.host_b);
  net::CbrConfig cbr;
  cbr.rate = config.cross_traffic;
  net::DatagramSink sink(*path.host_b);
  net::CbrSource cross(network, *path.host_a, *path.host_b, cbr, 5);
  cross.start();

  security::CertificateAuthority ca("CA");
  constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;
  storage::Disk disk(simulator, {});
  storage::DiskPool pool(100 * kGiB, disk);
  (void)pool.add_file("/pool/f", file_size, 0xf00d, 0);
  gridftp::FtpServer server(server_stack, pool, ca,
                            ca.issue("/CN=server", kYear));
  if (!server.start().is_ok()) return 1;
  gridftp::FtpClient client(client_stack, ca, ca.issue("/CN=client", kYear));

  gridftp::TransferOptions options;
  options.parallel_streams = streams;
  options.tcp_buffer = buffer;
  options.monitor_interval = 1 * kSecond;

  // Subscribing to perf markers is what turns the client's monitor on.
  // Each tick publishes every stripe's cumulative bytes, stripe 0 first;
  // a tick's total less the previous tick's is what moved in between.
  obs::TransferChannel channel;
  TimeSeries timeline;  // Mbit/s per monitor interval
  Bytes tick_bytes = 0;
  Bytes last_tick_bytes = 0;
  obs::TransferChannel::Observer monitor;
  monitor.on_perf = [&](const obs::PerfMarker& marker) {
    if (marker.stripe == 0) tick_bytes = 0;
    tick_bytes += marker.bytes;
    if (marker.stripe + 1 < marker.stripe_count) return;
    timeline.add(marker.time, throughput_mbps(tick_bytes - last_tick_bytes,
                                              options.monitor_interval));
    last_tick_bytes = tick_bytes;
  };
  channel.subscribe(std::move(monitor));
  options.channel = &channel;

  client.get(path.host_a->id(), gridftp::kControlPort, "/pool/f", "/x",
             nullptr, options, [&](Result<gridftp::TransferResult> result) {
               if (!result.is_ok()) {
                 std::printf("transfer failed: %s\n",
                             result.status().to_string().c_str());
                 return;
               }
               std::printf("transferred %s in %.2f s -> %.2f Mbit/s "
                           "(%lld retransmitted segments)\n\n",
                           format_bytes(result->bytes).c_str(),
                           to_seconds(result->elapsed), result->mbps,
                           static_cast<long long>(
                               result->retransmitted_segments));
               std::printf("throughput timeline (1 s samples):\n");
               for (const auto& point : timeline.points()) {
                 const int bars = static_cast<int>(point.value / 1.0);
                 std::printf("  t=%5.1fs %6.2f Mbit/s |", to_seconds(point.time),
                             point.value);
                 for (int i = 0; i < bars && i < 50; ++i) std::printf("#");
                 std::printf("\n");
               }
               simulator.request_stop();
             });
  simulator.run_until(4 * 3600 * kSecond);
  const auto& drops = path.bottleneck_ab->stats();
  std::printf("\nbottleneck: %lld packets forwarded, %lld dropped\n",
              static_cast<long long>(drops.packets_sent),
              static_cast<long long>(drops.packets_dropped));
  return 0;
}
