// RPC client: lazily connects, authenticates via GSI, pipelines calls.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "net/tcp.h"
#include "rpc/message.h"
#include "security/gsi.h"

namespace gdmp::rpc {

struct RpcClientConfig {
  SimDuration call_timeout = 60 * kSecond;
};

class RpcClient {
 public:
  using Done = std::function<void(Status, std::vector<std::uint8_t>)>;

  RpcClient(net::TcpStack& stack, net::NodeId server, net::Port port,
            const security::CertificateAuthority& ca,
            security::Certificate credential, RpcClientConfig config = {});
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Issues a call. Connects and authenticates on first use; calls made
  /// before authentication completes are queued and pipelined after it.
  void call(const std::string& method, std::vector<std::uint8_t> params,
            Done done);

  /// Closes the connection; pending calls fail with kUnavailable.
  void close();

  bool connected() const noexcept;
  net::NodeId server() const noexcept { return server_; }

  /// The authenticated server identity (empty until the handshake ends).
  const security::Subject& server_subject() const noexcept {
    return server_subject_;
  }

 private:
  struct PendingCall {
    Done done;
    sim::EventHandle timeout;
  };

  void ensure_connection();
  void on_data(std::span<const std::uint8_t> data);
  void on_message(RpcMessage message);
  void fail_all(const Status& status);
  void flush_queue();

  net::TcpStack& stack_;
  net::NodeId server_;
  net::Port port_;
  security::GsiInitiator initiator_;
  RpcClientConfig config_;
  Rng rng_;

  net::TcpConnection::Ptr conn_;
  FrameDecoder decoder_;
  bool authenticated_ = false;
  security::Subject server_subject_;
  std::uint64_t next_id_ = 1;
  // fail_all() walks this invoking completion callbacks (which may
  // schedule); ordered by request id so the walk order is deterministic.
  std::map<std::uint64_t, PendingCall> pending_;
  std::deque<RpcMessage> queued_;  // awaiting authentication
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::rpc
