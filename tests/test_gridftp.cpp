// Tests for the GridFTP protocol pieces and end-to-end transfers.
#include <gtest/gtest.h>

#include <set>

#include "common/crc32.h"
#include "gridftp/block_stream.h"
#include "gridftp/client.h"
#include "gridftp/server.h"
#include "net/topology.h"

namespace gdmp::gridftp {
namespace {

constexpr SimTime kYear = 365LL * 24 * 3600 * kSecond;

TEST(Protocol, PartitionRangeEvenSplit) {
  const auto parts = partition_range(ByteRange{0, 100}, 4, 100);
  ASSERT_EQ(parts.size(), 4u);
  Bytes total = 0;
  Bytes cursor = 0;
  for (const ByteRange& part : parts) {
    EXPECT_EQ(part.offset, cursor);
    cursor += part.length;
    total += part.length;
  }
  EXPECT_EQ(total, 100);
}

TEST(Protocol, PartitionRangeRemainderSpread) {
  const auto parts = partition_range(ByteRange{10, 7}, 3, 0);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].length, 3);
  EXPECT_EQ(parts[1].length, 2);
  EXPECT_EQ(parts[2].length, 2);
  EXPECT_EQ(parts[0].offset, 10);
}

TEST(Protocol, PartitionMorePartsThanBytes) {
  const auto parts = partition_range(ByteRange{0, 2}, 5, 2);
  EXPECT_EQ(parts.size(), 2u);
}

TEST(Protocol, OpenEndedRangeUsesFileSize) {
  const auto parts = partition_range(ByteRange{100, -1}, 2, 300);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].offset, 100);
  EXPECT_EQ(parts[0].length + parts[1].length, 200);
}

TEST(Protocol, HeaderCodecs) {
  rpc::Writer w;
  BlockHeader header{1234, 5678, 0xfeedULL};
  header.encode(w);
  auto decoded = BlockHeader::decode(w.buffer());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->offset, 1234);
  EXPECT_EQ(decoded->length, 5678);
  EXPECT_EQ(decoded->content_seed, 0xfeedULL);

  rpc::Writer hw;
  DataHello hello{0xabcdULL, 3};
  hello.encode(hw);
  auto hello_decoded = DataHello::decode(hw.buffer());
  ASSERT_TRUE(hello_decoded.has_value());
  EXPECT_EQ(hello_decoded->session_token, 0xabcdULL);
  EXPECT_EQ(hello_decoded->stream_index, 3);
}

TEST(BlockStream, ParsesHeaderPayloadSequence) {
  BlockStreamParser parser;
  std::vector<std::pair<Bytes, Bytes>> blocks;  // (offset, length)
  bool eod = false;
  parser.on_block_end = [&](const BlockHeader& h) {
    blocks.emplace_back(h.offset, h.length);
  };
  parser.on_eod = [&] { eod = true; };

  rpc::Writer w;
  BlockHeader{0, 500, 1}.encode(w);
  parser.feed_data(w.buffer());
  parser.feed_synthetic(200);
  parser.feed_synthetic(300);
  rpc::Writer w2;
  BlockHeader{500, 100, 1}.encode(w2);
  parser.feed_data(w2.buffer());
  parser.feed_synthetic(100);
  rpc::Writer w3;
  BlockHeader eod_header;
  eod_header.offset = -1;
  eod_header.encode(w3);
  parser.feed_data(w3.buffer());

  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], (std::pair<Bytes, Bytes>{0, 500}));
  EXPECT_EQ(blocks[1], (std::pair<Bytes, Bytes>{500, 100}));
  EXPECT_TRUE(eod);
}

TEST(BlockStream, FragmentedHeaderAccumulates) {
  BlockStreamParser parser;
  int begun = 0;
  parser.on_block_begin = [&](const BlockHeader&) { ++begun; };
  rpc::Writer w;
  BlockHeader{0, 10, 1}.encode(w);
  const auto& buffer = w.buffer();
  for (const std::uint8_t byte : buffer) {
    parser.feed_data(std::span(&byte, 1));
  }
  EXPECT_EQ(begun, 1);
}

TEST(BlockStream, SyntheticOutsidePayloadIsError) {
  BlockStreamParser parser;
  Status error = Status::ok();
  parser.on_error = [&](const Status& s) { error = s; };
  parser.feed_synthetic(100);
  EXPECT_FALSE(error.is_ok());
}

TEST(RangeSet, AddCoalesceAndMissing) {
  RangeSet set;
  set.add(0, 100);
  set.add(200, 100);
  set.add(100, 50);  // adjacent: coalesces with [0,100)
  EXPECT_EQ(set.total_bytes(), 250);
  EXPECT_EQ(set.ranges().size(), 2u);
  EXPECT_TRUE(set.covers(0, 150));
  EXPECT_FALSE(set.covers(0, 200));
  const auto missing = set.missing_within(0, 300);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].offset, 150);
  EXPECT_EQ(missing[0].length, 50);
}

TEST(RangeSet, OverlapsMerge) {
  RangeSet set;
  set.add(10, 50);
  set.add(30, 100);
  set.add(0, 15);
  EXPECT_EQ(set.ranges().size(), 1u);
  EXPECT_EQ(set.total_bytes(), 130);
  EXPECT_TRUE(set.missing_within(0, 130).empty());
}

struct FtpFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a;
  std::unique_ptr<net::TcpStack> stack_b;
  security::CertificateAuthority ca{"TestCA"};
  storage::DiskConfig disk_config{};
  std::unique_ptr<storage::Disk> disk_a, disk_b;
  std::unique_ptr<storage::DiskPool> pool_a, pool_b;
  std::unique_ptr<FtpServer> server;
  std::unique_ptr<FtpClient> client;

  explicit FtpFixture(FtpServerConfig server_config = {}) {
    path = net::make_wan_path(network, "src", "dst");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    disk_a = std::make_unique<storage::Disk>(simulator, disk_config);
    disk_b = std::make_unique<storage::Disk>(simulator, disk_config);
    pool_a = std::make_unique<storage::DiskPool>(100 * kGiB, *disk_a);
    pool_b = std::make_unique<storage::DiskPool>(100 * kGiB, *disk_b);
    server = std::make_unique<FtpServer>(*stack_a, *pool_a, ca,
                                         ca.issue("/CN=src", kYear),
                                         server_config);
    client = std::make_unique<FtpClient>(*stack_b, ca,
                                         ca.issue("/CN=dst", kYear));
    EXPECT_TRUE(server->start().is_ok());
  }
};

TEST(Ftp, GetTransfersFileWithCorrectContent) {
  FtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 2 * kMiB, 0x1234, 0);
  TransferOptions options;
  options.parallel_streams = 2;
  bool done = false;
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/pool/f",
                f.pool_b.get(), options, [&](Result<TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 2 * kMiB);
                  EXPECT_EQ(result->content_seed, 0x1234u);
                  EXPECT_EQ(result->crc, crc32_synthetic(0x1234, 0, 2 * kMiB));
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  auto local = f.pool_b->peek("/pool/f");
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local->size, 2 * kMiB);
  EXPECT_EQ(local->content_seed, 0x1234u);
}

TEST(Ftp, ServerAndClientShareTheRunCrcMemo) {
  // The server's range CRC and the client's true-seed verify compute the
  // same key, so a clean get runs the synthetic CRC loop once.
  FtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 2 * kMiB, 0x1234, 0);
  bool done = false;
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/pool/f",
                f.pool_b.get(), TransferOptions{},
                [&](Result<TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->crc, crc32_synthetic(0x1234, 0, 2 * kMiB));
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(f.simulator.crc_memo().misses(), 1u);
  EXPECT_EQ(f.simulator.crc_memo().hits(), 1u);
}

TEST(Ftp, GetMissingFileFails) {
  FtpFixture f;
  Status status = Status::ok();
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/none", "/x",
                f.pool_b.get(), TransferOptions{},
                [&](Result<TransferResult> result) {
                  status = result.status();
                });
  f.simulator.run_until(60 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(Ftp, PartialTransferMovesOnlyRange) {
  FtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 10 * kMiB, 7, 0);
  TransferOptions options;
  options.range = ByteRange{1 * kMiB, 2 * kMiB};
  bool done = false;
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/pool/part",
                f.pool_b.get(), options, [&](Result<TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok());
                  EXPECT_EQ(result->bytes, 2 * kMiB);
                  EXPECT_EQ(result->crc,
                            crc32_synthetic(7, 1 * kMiB, 2 * kMiB));
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(f.pool_b->peek("/pool/part")->size, 2 * kMiB);
}

TEST(Ftp, OutOfBoundsRangeRejected) {
  FtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 7, 0);
  TransferOptions options;
  options.range = ByteRange{512 * kKiB, 1 * kMiB};
  Status status = Status::ok();
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/x",
                f.pool_b.get(), options, [&](Result<TransferResult> r) {
                  status = r.status();
                });
  f.simulator.run_until(60 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(Ftp, PutStoresFileRemotely) {
  FtpFixture f;
  (void)f.pool_b->add_file("/local/f", 3 * kMiB, 0x77, 0);
  TransferOptions options;
  options.parallel_streams = 3;
  bool done = false;
  f.client->put(f.path.host_a->id(), kControlPort, *f.pool_b, "/local/f",
                "/pool/stored", options, [&](Result<TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 3 * kMiB);
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  auto stored = f.pool_a->peek("/pool/stored");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored->size, 3 * kMiB);
  EXPECT_EQ(stored->content_seed, 0x77u);
}

TEST(Ftp, CorruptionDetectedAndRepairedByRestart) {
  FtpServerConfig config;
  config.corrupt_probability = 0.3;
  config.fault_seed = 11;
  FtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 4 * kMiB, 0x5151, 0);
  TransferOptions options;
  options.parallel_streams = 4;
  options.expected_crc = crc32_synthetic(0x5151, 0, 4 * kMiB);
  options.max_attempts = 10;
  bool done = false;
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/pool/f",
                f.pool_b.get(), options, [&](Result<TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_GT(result->attempts, 1);
                  EXPECT_EQ(result->content_seed, 0x5151u);
                });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(f.server->stats().blocks_corrupted, 0);
}

TEST(Ftp, PersistentCorruptionExhaustsAttempts) {
  FtpServerConfig config;
  config.corrupt_probability = 1.0;  // every block poisoned
  FtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 3, 0);
  TransferOptions options;
  options.expected_crc = crc32_synthetic(3, 0, 1 * kMiB);
  options.max_attempts = 2;
  Status status = Status::ok();
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/pool/f",
                f.pool_b.get(), options, [&](Result<TransferResult> result) {
                  status = result.status();
                });
  f.simulator.run_until(600 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kCorrupted);
}

TEST(Ftp, SizeChecksumDeleteCommands) {
  FtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 9, 0);
  Bytes size = 0;
  std::uint32_t crc = 0;
  f.client->file_size(f.path.host_a->id(), kControlPort, "/pool/f",
                      [&](Result<Bytes> r) { size = r.value_or(-1); });
  f.client->checksum(f.path.host_a->id(), kControlPort, "/pool/f",
                     [&](Result<std::uint32_t> r) { crc = r.value_or(0); });
  f.simulator.run_until(60 * kSecond);
  EXPECT_EQ(size, 1 * kMiB);
  EXPECT_EQ(crc, crc32_synthetic(9, 0, 1 * kMiB));

  Status deleted = make_error(ErrorCode::kInternal, "pending");
  f.client->remove_remote(f.path.host_a->id(), kControlPort, "/pool/f",
                          [&](Status s) { deleted = s; });
  f.simulator.run_until(120 * kSecond);
  EXPECT_TRUE(deleted.is_ok());
  EXPECT_FALSE(f.pool_a->contains("/pool/f"));
}

TEST(Ftp, ParallelStreamsImproveUntunedThroughput) {
  double one_stream = 0, four_streams = 0;
  for (const int streams : {1, 4}) {
    FtpFixture f;
    (void)f.pool_a->add_file("/pool/f", 10 * kMiB, 1, 0);
    TransferOptions options;
    options.parallel_streams = streams;
    options.tcp_buffer = 64 * kKiB;
    double mbps = 0;
    f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/pool/f",
                  f.pool_b.get(), options, [&](Result<TransferResult> r) {
                    if (r.is_ok()) mbps = r->mbps;
                  });
    f.simulator.run_until(600 * kSecond);
    (streams == 1 ? one_stream : four_streams) = mbps;
  }
  EXPECT_GT(one_stream, 2.0);
  EXPECT_GT(four_streams, one_stream * 2.5);
}

TEST(Ftp, ThirdPartyTransferBetweenServers) {
  // Build a 3-node star so a controller can steer src -> dst.
  sim::Simulator simulator;
  net::Network network(simulator);
  std::vector<net::GridSiteLink> links(3);
  links[0].site_name = "ctl";
  links[1].site_name = "src";
  links[2].site_name = "dst";
  auto topo = net::make_grid_topology(network, links);
  security::CertificateAuthority ca("TestCA");
  net::TcpStack ctl_stack(simulator, *topo.hosts[0]);
  net::TcpStack src_stack(simulator, *topo.hosts[1]);
  net::TcpStack dst_stack(simulator, *topo.hosts[2]);
  storage::Disk disk_src(simulator, {}), disk_dst(simulator, {});
  storage::DiskPool pool_src(10 * kGiB, disk_src), pool_dst(10 * kGiB, disk_dst);
  FtpServer src_server(src_stack, pool_src, ca, ca.issue("/CN=src", kYear));
  FtpServer dst_server(dst_stack, pool_dst, ca, ca.issue("/CN=dst", kYear));
  ASSERT_TRUE(src_server.start().is_ok());
  ASSERT_TRUE(dst_server.start().is_ok());
  (void)pool_src.add_file("/pool/f", 2 * kMiB, 0xbeef, 0);

  FtpClient controller(ctl_stack, ca, ca.issue("/CN=ctl", kYear));
  bool done = false;
  TransferOptions options;
  options.parallel_streams = 2;
  controller.third_party(topo.hosts[1]->id(), kControlPort, "/pool/f",
                         topo.hosts[2]->id(), kControlPort, "/pool/f",
                         options, [&](Result<TransferResult> result) {
                           done = true;
                           ASSERT_TRUE(result.is_ok())
                               << result.status().to_string();
                           EXPECT_EQ(result->bytes, 2 * kMiB);
                         });
  simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(pool_dst.contains("/pool/f"));
  EXPECT_EQ(src_server.stats().third_party, 1);
}

// The monitor samples a running transfer for a perf subscriber: one tick
// per monitor_interval, each tick a marker per stripe.
TEST(Ftp, RateMonitorRecordsSamples) {
  FtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 8 * kMiB, 2, 0);
  obs::TransferChannel channel;
  std::set<SimTime> ticks;
  obs::TransferChannel::Observer observer;
  observer.on_perf = [&](const obs::PerfMarker& marker) {
    ticks.insert(marker.time);
  };
  channel.subscribe(std::move(observer));
  TransferOptions options;
  options.tcp_buffer = 1 * kMiB;
  options.channel = &channel;
  bool ok = false;
  f.client->get(f.path.host_a->id(), kControlPort, "/pool/f", "/pool/f",
                f.pool_b.get(), options, [&](Result<TransferResult> result) {
                  ok = result.is_ok();
                });
  f.simulator.run_until(300 * kSecond);
  EXPECT_TRUE(ok);
  EXPECT_GT(ticks.size(), 2u);
}

}  // namespace
}  // namespace gdmp::gridftp
