// GridFTP client library (globus_ftp_client analogue).
//
// Implements get/put with parallel TCP streams, TCP buffer negotiation,
// partial-file ranges, automatic restart of failed or corrupted transfers,
// third-party transfer control, and integrated throughput instrumentation
// (the paper's "monitoring ongoing transfer performance"): a periodic
// monitor publishes per-stripe perf markers on TransferOptions::channel.
// Like GridFTP's wire markers it is opt-in — it runs only while that
// channel has a perf subscriber, so an unwatched transfer schedules no
// monitor events (DESIGN.md §5m).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "flow/transfer_model.h"
#include "gridftp/block_stream.h"
#include "gridftp/protocol.h"
#include "obs/channel.h"
#include "obs/trace.h"
#include "rpc/rpc_client.h"
#include "storage/disk_pool.h"

namespace gdmp::gridftp {

struct TransferOptions {
  int parallel_streams = 1;
  /// TCP socket buffer for *both ends* of every data stream ("the buffer
  /// size must be adjusted for both the send and receive ends", §6).
  Bytes tcp_buffer = 64 * kKiB;
  /// Partial transfer: defaults to the whole file.
  ByteRange range{0, -1};
  /// End-to-end reference checksum (e.g. from the replica catalog). When
  /// set, a mismatch that cannot be repaired by block re-requests fails
  /// with kCorrupted.
  std::optional<std::uint32_t> expected_crc;
  /// Total attempts including the first (restart on failure/corruption).
  int max_attempts = 3;
  /// Perf-marker period: each tick publishes one marker per stripe with
  /// its cumulative bytes. Ticks run only for a perf subscriber.
  SimDuration monitor_interval = 500 * kMillisecond;
  /// Control-channel call timeout; transfers legitimately take minutes.
  SimDuration rpc_timeout = 7200 * kSecond;
  /// Observer channel for perf/restart markers and the terminal summary
  /// (the paper's wire-level performance markers, §3.2). Not owned; null
  /// disables marker emission. The perf monitor is armed only when this
  /// channel has an `on_perf` observer at the start of a data phase.
  obs::TransferChannel* channel = nullptr;
  /// Peer label stamped on emitted markers (e.g. the source host name).
  std::string peer;
  /// Parent for the "gridftp.transfer" span; invalid = ambient current.
  obs::SpanId parent_span{};
  /// Transfer-model seam (flow/transfer_model.h): when set, the payload
  /// moves as rate-based flows on this engine instead of per-segment TCP
  /// data streams; null selects the packet plane. Control-channel RPCs,
  /// restart/verification logic and all Perf/Restart markers are shared by
  /// both planes. Not owned.
  flow::FlowEngine* flow_engine = nullptr;
};

struct TransferResult {
  Bytes bytes = 0;
  SimDuration elapsed = 0;
  double mbps = 0;
  std::uint32_t crc = 0;
  /// Content identity of the *delivered* file (derived for partial gets).
  std::uint64_t content_seed = 0;
  /// Content identity of the *source* file (same as content_seed for
  /// full-file transfers; lets striped retrievals reassemble).
  std::uint64_t source_seed = 0;
  int attempts = 1;
  int streams = 1;
  std::int64_t retransmitted_segments = 0;  // summed over data streams
};

class FtpClient {
 public:
  using Done = std::function<void(Result<TransferResult>)>;

  FtpClient(net::TcpStack& stack, const security::CertificateAuthority& ca,
            security::Certificate credential);
  ~FtpClient();

  FtpClient(const FtpClient&) = delete;
  FtpClient& operator=(const FtpClient&) = delete;

  /// Retrieves `remote_path` from the server. When `pool` is non-null the
  /// file is written there as `local_path`; a null pool discards payload
  /// (pure network benchmarking, like the paper's extended_get client).
  void get(net::NodeId server, net::Port control_port,
           const std::string& remote_path, const std::string& local_path,
           storage::DiskPool* pool, const TransferOptions& options,
           Done done);

  /// Stores the local file `local_path` (from `pool`) as `remote_path`.
  void put(net::NodeId server, net::Port control_port,
           storage::DiskPool& pool, const std::string& local_path,
           const std::string& remote_path, const TransferOptions& options,
           Done done);

  /// Asks `source` to push `path` to `dest` (third-party control).
  void third_party(net::NodeId source, net::Port source_port,
                   const std::string& path, net::NodeId dest,
                   net::Port dest_port, const std::string& dest_path,
                   const TransferOptions& options, Done done);

  void file_size(net::NodeId server, net::Port port, const std::string& path,
                 std::function<void(Result<Bytes>)> done);
  void checksum(net::NodeId server, net::Port port, const std::string& path,
                std::function<void(Result<std::uint32_t>)> done);
  void remove_remote(net::NodeId server, net::Port port,
                     const std::string& path,
                     std::function<void(Status)> done);

 private:
  struct Transfer;

  /// A control-plane RPC client owned by its own completion lambda (the
  /// shared box keeps it alive exactly until the call settles).
  using ControlRpc = std::shared_ptr<std::unique_ptr<rpc::RpcClient>>;

  std::shared_ptr<Transfer> make_transfer(
      net::NodeId server, net::Port port, bool is_put,
      const std::string& remote_path, const std::string& local_path,
      storage::DiskPool* pool, const TransferOptions& options, Done done);
  std::unique_ptr<rpc::RpcClient> make_rpc(net::NodeId server, net::Port port,
                                           SimDuration timeout) const;
  ControlRpc make_control_rpc(net::NodeId server, net::Port port,
                              SimDuration timeout);

  /// One attempt of a get or put on either data plane: SBUF/PASV/streams
  /// then RETR or STOR (packet), or FGET then flows / flows then FPUT
  /// (fluid). The closing command's reply settles the attempt.
  void start_attempt(const std::shared_ptr<Transfer>& transfer);
  void open_streams(const std::shared_ptr<Transfer>& transfer);
  void streams_ready(const std::shared_ptr<Transfer>& transfer);
  void launch_flows(const std::shared_ptr<Transfer>& transfer);
  void flows_drained(const std::shared_ptr<Transfer>& transfer);
  void call_closing(const std::shared_ptr<Transfer>& transfer,
                    const char* command, std::vector<std::uint8_t> params);
  void ensure_monitor(const std::shared_ptr<Transfer>& transfer);
  void monitor_tick(const std::shared_ptr<Transfer>& transfer);
  void finish_get_attempt(const std::shared_ptr<Transfer>& transfer,
                          Status status, std::span<const std::uint8_t> reply);
  void finish_put_attempt(const std::shared_ptr<Transfer>& transfer,
                          Status status, std::span<const std::uint8_t> reply);
  void retry_or_fail(const std::shared_ptr<Transfer>& transfer,
                     std::vector<ByteRange> ranges, const Status& cause);
  void succeed(const std::shared_ptr<Transfer>& transfer,
               std::uint64_t source_seed, std::uint64_t content_seed);
  void complete(const std::shared_ptr<Transfer>& transfer,
                Result<TransferResult> result);

  net::TcpStack& stack_;
  const security::CertificateAuthority& ca_;
  security::Certificate credential_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Live transfers, so teardown can settle their completions: a Transfer
  /// is otherwise reachable only through closures queued in the simulator,
  /// which the alive_ guards silently drop once the client is gone.
  std::vector<std::weak_ptr<Transfer>> in_flight_;
  /// Pending control-plane RPCs (third-party, size, checksum, delete), so
  /// teardown can settle their callbacks immediately instead of leaving
  /// them parked until the RPC timeout fires.
  std::vector<std::weak_ptr<std::unique_ptr<rpc::RpcClient>>> control_rpcs_;
};

}  // namespace gdmp::gridftp
