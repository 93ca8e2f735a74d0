#include "rpc/rpc_client.h"

#include "common/logging.h"

namespace gdmp::rpc {

RpcClient::RpcClient(net::TcpStack& stack, net::NodeId server, net::Port port,
                     const security::CertificateAuthority& ca,
                     security::Certificate credential, RpcClientConfig config)
    : stack_(stack),
      server_(server),
      port_(port),
      initiator_(ca, std::move(credential)),
      config_(config),
      rng_(0xc11e47 ^ static_cast<std::uint64_t>(server) << 16 ^ port) {}

RpcClient::~RpcClient() {
  *alive_ = false;
  if (conn_) {
    conn_->on_data = nullptr;
    conn_->on_established = nullptr;
    conn_->on_closed = nullptr;
    conn_->close();
  }
  // The timeout closures that would otherwise settle pending_ are
  // alive-guarded and drop themselves once the sentinel flips; fail the
  // calls here so every completion fires exactly once.
  fail_all(make_error(ErrorCode::kAborted, "rpc client destroyed"));
}

bool RpcClient::connected() const noexcept {
  return conn_ && conn_->established() && authenticated_;
}

void RpcClient::call(const std::string& method,
                     std::vector<std::uint8_t> params, Done done) {
  ensure_connection();
  const std::uint64_t id = next_id_++;
  RpcMessage request;
  request.kind = MessageKind::kRequest;
  request.request_id = id;
  request.method = method;
  request.payload = std::move(params);

  PendingCall pending;
  pending.done = std::move(done);
  std::weak_ptr<bool> alive = alive_;
  pending.timeout =
      stack_.simulator().schedule(config_.call_timeout, [this, alive, id] {
        if (alive.expired()) return;
        const auto it = pending_.find(id);
        if (it == pending_.end()) return;
        Done cb = std::move(it->second.done);
        pending_.erase(it);
        cb(make_error(ErrorCode::kTimedOut, "RPC call timed out"), {});
      });
  pending_.emplace(id, std::move(pending));

  if (authenticated_) {
    conn_->send(encode_frame(request));
  } else {
    queued_.push_back(std::move(request));
  }
}

void RpcClient::close() {
  if (conn_) {
    auto conn = conn_;
    conn_.reset();
    conn->on_data = nullptr;
    conn->on_established = nullptr;
    conn->on_closed = nullptr;
    conn->close();
  }
  authenticated_ = false;
  fail_all(make_error(ErrorCode::kUnavailable, "client closed"));
}

void RpcClient::ensure_connection() {
  if (conn_ && conn_->state() != net::TcpConnection::State::kClosed) return;
  authenticated_ = false;
  decoder_ = FrameDecoder();
  conn_ = stack_.connect(server_, port_, net::TcpConfig{});
  std::weak_ptr<bool> alive = alive_;
  conn_->on_established = [this, alive](const Status& status) {
    if (alive.expired()) return;
    if (!status.is_ok()) {
      fail_all(status);
      return;
    }
    RpcMessage init;
    init.kind = MessageKind::kAuthInit;
    init.payload = initiator_.initiate(rng_);
    conn_->send(encode_frame(init));
  };
  conn_->on_data = [this, alive](std::span<const std::uint8_t> data) {
    if (alive.expired()) return;
    on_data(data);
  };
  conn_->on_closed = [this, alive](const Status& status) {
    if (alive.expired()) return;
    authenticated_ = false;
    fail_all(status.is_ok()
                 ? make_error(ErrorCode::kUnavailable, "connection closed")
                 : status);
  };
}

void RpcClient::on_data(std::span<const std::uint8_t> data) {
  // Completing a call can destroy this client from inside on_message (a
  // continuation owning the client drops it); guard every step after the
  // first dispatch.
  std::weak_ptr<bool> alive = alive_;
  const Status status = decoder_.feed(data, [this, alive](RpcMessage m) {
    if (alive.expired()) return;
    on_message(std::move(m));
  });
  if (alive.expired()) return;
  if (!status.is_ok()) {
    GDMP_WARN("rpc.client", "protocol error: ", status.to_string());
    conn_->abort();
  }
}

void RpcClient::on_message(RpcMessage message) {
  if (message.kind == MessageKind::kAuthReply) {
    if (message.status_code != 0) {
      fail_all(Status(static_cast<ErrorCode>(message.status_code),
                      message.status_message));
      conn_->close();
      return;
    }
    auto context =
        initiator_.complete(message.payload, stack_.simulator().now());
    if (!context.is_ok()) {
      fail_all(context.status());
      conn_->abort();
      return;
    }
    server_subject_ = context->peer;
    authenticated_ = true;
    flush_queue();
    return;
  }
  if (message.kind != MessageKind::kResponse) return;
  const auto it = pending_.find(message.request_id);
  if (it == pending_.end()) return;  // timed out earlier
  stack_.simulator().cancel(it->second.timeout);
  Done done = std::move(it->second.done);
  pending_.erase(it);
  Status status =
      message.status_code == 0
          ? Status::ok()
          : Status(static_cast<ErrorCode>(message.status_code),
                   message.status_message);
  done(status, std::move(message.payload));
}

void RpcClient::fail_all(const Status& status) {
  queued_.clear();
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, call] : pending) {
    stack_.simulator().cancel(call.timeout);
    call.done(status, {});
  }
}

void RpcClient::flush_queue() {
  while (!queued_.empty()) {
    conn_->send(encode_frame(queued_.front()));
    queued_.pop_front();
  }
}

}  // namespace gdmp::rpc
