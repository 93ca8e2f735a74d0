// RPC server: GSI-authenticated method dispatch.
//
// One RpcServer per GDMP site service. Connections must complete the GSI
// handshake before any request is dispatched; handlers receive the
// authenticated peer identity and respond asynchronously (staging and
// transfer operations take simulated minutes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/det_hash.h"
#include "common/result.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "rpc/message.h"
#include "security/gsi.h"

namespace gdmp::rpc {

class RpcServer {
 public:
  /// Completes a request: status + response payload.
  using Respond =
      std::function<void(Status, std::vector<std::uint8_t> payload)>;
  /// Handles one authenticated request. May call `respond` immediately or
  /// after arbitrary simulated time (exactly once). `session_id` is stable
  /// for the lifetime of one client connection, letting services keep
  /// per-connection state (e.g. GridFTP's SBUF-then-PASV sequence).
  using Handler = std::function<void(const security::GsiContext& peer,
                                     std::uint64_t session_id,
                                     std::span<const std::uint8_t> params,
                                     Respond respond)>;

  RpcServer(net::TcpStack& stack, net::Port port,
            const security::CertificateAuthority& ca,
            security::Certificate credential, net::TcpConfig tcp_config = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void register_method(std::string name, Handler handler);

  /// Starts listening. Call after registering methods.
  Status start();
  void stop();

  net::Port port() const noexcept { return port_; }
  std::int64_t requests_served() const noexcept { return requests_served_; }
  std::int64_t auth_failures() const noexcept { return auth_failures_; }

  /// Attaches request/auth-failure counters (scope e.g. "site.cern.rpc").
  /// Each dispatched request also gets an "rpc.request" span (the root of
  /// the replication chain) when the global tracer is enabled.
  void set_metrics(const obs::MetricsScope& scope);

 private:
  struct Session;

  void on_accept(net::TcpConnection::Ptr conn);
  void on_message(const std::shared_ptr<Session>& session, RpcMessage message);
  void dispatch(const std::shared_ptr<Session>& session, RpcMessage message);

  net::TcpStack& stack_;
  net::Port port_;
  security::GsiAcceptor acceptor_;
  net::TcpConfig tcp_config_;
  common::UnorderedMap<std::string, Handler> methods_;  // lookup-only
  // Iterated at teardown to close live connections (a scheduling sink), so
  // the walk order must be deterministic: ordered by session id.
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  bool listening_ = false;
  std::uint64_t next_session_id_ = 1;
  std::int64_t requests_served_ = 0;
  std::int64_t auth_failures_ = 0;
  obs::Counter* requests_metric_ = nullptr;
  obs::Counter* auth_failures_metric_ = nullptr;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Puts a service's handler behind the service's liveness guard. A
/// method table can dispatch frames queued before its service died, or
/// outlive the service outright; once `alive` has expired the method
/// replies kUnavailable `stopped` instead of calling `handler`. The
/// handler gets the live service as its first argument, so it captures
/// nothing: `service` is reachable only through the guard.
template <typename Service, typename Fn>
RpcServer::Handler guarded(Service* service, std::weak_ptr<bool> alive,
                           const char* stopped, Fn handler) {
  return [service, alive = std::move(alive), stopped,
          handler = std::move(handler)](
             const security::GsiContext& peer, std::uint64_t session_id,
             std::span<const std::uint8_t> params,
             RpcServer::Respond respond) {
    if (alive.expired()) {
      respond(make_error(ErrorCode::kUnavailable, stopped), {});
      return;
    }
    handler(*service, peer, session_id, params, std::move(respond));
  };
}

}  // namespace gdmp::rpc
