// GridFTP server (§3.2).
//
// Serves RETR/STOR with parallel data streams, partial-transfer ranges,
// buffer negotiation (SBUF), checksums (CKSM), deletion and third-party
// transfer control (XFER). Built on the GSI-authenticated RPC control
// channel plus raw TCP data channels carrying extended-mode blocks.
//
// Fault injection: with `corrupt_probability`, a data block is sent with a
// poisoned content seed — the wire analogue of the silent corruption the
// paper guards against with an "additional CRC error check" (§4.3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/det_hash.h"
#include "common/random.h"
#include "common/result.h"
#include "flow/transfer_model.h"
#include "gridftp/block_stream.h"
#include "gridftp/protocol.h"
#include "obs/channel.h"
#include "obs/metrics.h"
#include "rpc/rpc_server.h"
#include "storage/disk_pool.h"

namespace gdmp::gridftp {

struct FtpServerConfig {
  net::Port control_port = kControlPort;
  net::TcpConfig control_tcp{};
  Bytes default_data_buffer = 64 * kKiB;
  Bytes max_data_buffer = 64 * kMiB;
  int max_parallel_streams = 32;
  double corrupt_probability = 0.0;
  std::uint64_t fault_seed = 0x5eedf00d;
  /// Data plane for transfers this server *originates* (the sending side
  /// of third-party XFER): fluid flows on this engine when set, TCP
  /// streams when null. Inbound FGET/FPUT are always served. Not owned.
  flow::FlowEngine* flow_engine = nullptr;
};

struct FtpServerStats {
  std::int64_t retrievals = 0;
  std::int64_t stores = 0;
  std::int64_t third_party = 0;
  std::int64_t blocks_corrupted = 0;
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
};

class FtpServer {
 public:
  FtpServer(net::TcpStack& stack, storage::DiskPool& pool,
            const security::CertificateAuthority& ca,
            security::Certificate credential, FtpServerConfig config = {});
  ~FtpServer();

  FtpServer(const FtpServer&) = delete;
  FtpServer& operator=(const FtpServer&) = delete;

  Status start();
  void stop();

  const FtpServerStats& stats() const noexcept { return stats_; }
  /// Runtime flaky-link toggle: corruption probability of each data block
  /// from now on (tests/benches flip a healthy server bad and back).
  void set_corrupt_probability(double p) noexcept {
    config_.corrupt_probability = p;
  }
  storage::DiskPool& pool() noexcept { return pool_; }
  net::Port control_port() const noexcept { return config_.control_port; }
  net::TcpStack& stack() noexcept { return stack_; }
  const security::CertificateAuthority& ca() const noexcept { return ca_; }
  const security::Certificate& credential() const noexcept {
    return credential_;
  }

  /// Attaches transfer/byte counters (scope e.g. "site.cern.gridftp"); the
  /// "rpc" child scope instruments the embedded control-channel server.
  void set_metrics(const obs::MetricsScope& scope);

  /// Server-side marker channel: RETR sessions publish per-stripe perf
  /// markers as blocks are queued. Not owned; null disables emission.
  void set_channel(obs::TransferChannel* channel) noexcept {
    channel_ = channel;
  }

 private:
  struct DataStream;
  struct DataSession;
  struct ControlState {
    Bytes data_buffer;
  };
  /// A read resolved against the file's current size: the seed its
  /// blocks or stripes carry and the {total, crc} RETR and FGET reply with.
  struct ReadPlan {
    std::uint64_t seed = 0;
    Bytes total = 0;
    std::uint32_t crc = 0;
  };

  void handle_sbuf(std::uint64_t session_id,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_pasv(std::uint64_t session_id,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_retr(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_stor(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_size(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_cksm(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_dele(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_xfer(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_fget(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_fput(std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);

  /// RETR and STOR: the PASV session `token` names, if it is idle.
  Result<std::shared_ptr<DataSession>> idle_session(std::uint64_t token) const;
  /// RETR and FGET: the one pool lookup of the request, range resolution
  /// with bounds checks (open-ended ranges are filled in), and the CRC.
  Result<ReadPlan> plan_read(const std::string& path,
                             std::vector<ByteRange>& ranges);
  /// The content seed a RETR block or FGET stripe goes out with: `seed`,
  /// or a poisoned copy when the fault model fires (blocks_corrupted).
  std::uint64_t wire_seed(std::uint64_t seed);
  /// Server-side perf marker for one stripe of a RETR or FGET.
  void emit_perf(const std::string& path, Bytes bytes, std::size_t stripe,
                 std::size_t stripe_count);
  /// STOR and FPUT: materialises the received file, charges the disk
  /// write and replies with the stored CRC.
  void commit_store(const std::string& path, Bytes total, std::uint64_t seed,
                    const rpc::RpcServer::Respond& respond);

  void on_data_connection(const std::shared_ptr<DataSession>& session,
                          net::TcpConnection::Ptr conn);
  void attach_stream(const std::shared_ptr<DataSession>& session,
                     const DataHello& hello, net::TcpConnection::Ptr conn);
  void maybe_start_retr(const std::shared_ptr<DataSession>& session);
  void check_stor_complete(const std::shared_ptr<DataSession>& session);
  void finish_retr_stream(const std::shared_ptr<DataSession>& session);
  void fail_session(const std::shared_ptr<DataSession>& session,
                    const Status& status);
  void destroy_session(const std::shared_ptr<DataSession>& session);

  net::TcpStack& stack_;
  storage::DiskPool& pool_;
  const security::CertificateAuthority& ca_;
  security::Certificate credential_;
  FtpServerConfig config_;
  rpc::RpcServer rpc_;
  Rng fault_rng_;
  FtpServerStats stats_;
  struct ServerMetrics {
    obs::Counter* retrievals = nullptr;
    obs::Counter* stores = nullptr;
    obs::Counter* third_party = nullptr;
    obs::Counter* blocks_corrupted = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
  };
  ServerMetrics metrics_;
  obs::TransferChannel* channel_ = nullptr;
  common::UnorderedMap<std::uint64_t, ControlState> control_state_;  // lookup-only
  // Iterated at teardown to cancel timers and tear down streams (both
  // scheduling sinks), so the walk order must be deterministic: ordered
  // by session token.
  std::map<std::uint64_t, std::shared_ptr<DataSession>> sessions_;
  std::uint64_t next_token_ = 1;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::gridftp
