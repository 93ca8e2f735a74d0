#include "rpc/rpc_server.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace gdmp::rpc {

struct RpcServer::Session {
  net::TcpConnection::Ptr conn;
  FrameDecoder decoder;
  security::GsiContext peer;
  std::uint64_t id = 0;
  bool authenticated = false;
};

RpcServer::RpcServer(net::TcpStack& stack, net::Port port,
                     const security::CertificateAuthority& ca,
                     security::Certificate credential,
                     net::TcpConfig tcp_config)
    : stack_(stack),
      port_(port),
      acceptor_(ca, std::move(credential)),
      tcp_config_(tcp_config) {}

RpcServer::~RpcServer() {
  *alive_ = false;
  stop();
  // Sessions whose connection never closed are kept alive purely by their
  // own conn-callback captures; drop those so the web is released.
  for (auto& [id, session] : sessions_) {
    if (session->conn) {
      session->conn->on_data = nullptr;
      session->conn->on_closed = nullptr;
      session->conn->close();
    }
  }
}

void RpcServer::register_method(std::string name, Handler handler) {
  // gdmp-lint: hot-alloc — method table is populated once at server setup
  methods_[std::move(name)] = std::move(handler);
}

Status RpcServer::start() {
  if (listening_) return Status::ok();
  const Status status = stack_.listen(
      port_, tcp_config_,
      [this, alive = std::weak_ptr<bool>(alive_)](net::TcpConnection::Ptr conn) {
        if (alive.expired()) return;
        on_accept(std::move(conn));
      });
  listening_ = status.is_ok();
  return status;
}

void RpcServer::stop() {
  if (!listening_) return;
  stack_.close_listener(port_);
  listening_ = false;
}

void RpcServer::on_accept(net::TcpConnection::Ptr conn) {
  auto session = std::make_shared<Session>();
  session->conn = std::move(conn);
  session->id = next_session_id_++;
  std::weak_ptr<bool> alive = alive_;
  // gdmp-lint: keepalive-cycle (session web released in on_closed/~RpcServer)
  session->conn->on_data = [this, alive, session](
                               std::span<const std::uint8_t> data) {
    if (alive.expired()) return;
    const Status status = session->decoder.feed(
        data, [this, session](RpcMessage m) { on_message(session, std::move(m)); });
    if (!status.is_ok()) {
      GDMP_WARN("rpc.server", "dropping connection: ", status.to_string());
      session->conn->abort();
    }
  };
  // gdmp-lint: keepalive-cycle (this closure clears both callbacks itself)
  session->conn->on_closed = [this, alive, session](const Status&) {
    // Session keeps itself alive through the captures; dropping the
    // callbacks here releases the cycle. Clearing on_closed destroys this
    // very closure, so move it into the frame first.
    auto keep_this_closure_alive = std::move(session->conn->on_closed);
    session->conn->on_data = nullptr;
    session->conn->on_closed = nullptr;
    if (!alive.expired()) sessions_.erase(session->id);
  };
  sessions_.emplace(session->id, session);
}

void RpcServer::on_message(const std::shared_ptr<Session>& session,
                           RpcMessage message) {
  if (!session->authenticated) {
    if (message.kind != MessageKind::kAuthInit) {
      ++auth_failures_;
      session->conn->abort();
      return;
    }
    auto accepted = acceptor_.accept(message.payload,
                                     stack_.simulator().now());
    if (!accepted.is_ok()) {
      ++auth_failures_;
      GDMP_WARN("rpc.server", "GSI reject: ", accepted.status().to_string());
      RpcMessage reply;
      reply.kind = MessageKind::kAuthReply;
      reply.status_code = static_cast<std::uint8_t>(accepted.code());
      reply.status_message = accepted.status().message();
      session->conn->send(encode_frame(reply));
      session->conn->close();
      return;
    }
    session->peer = accepted->context;
    session->authenticated = true;
    RpcMessage reply;
    reply.kind = MessageKind::kAuthReply;
    reply.payload = std::move(accepted->reply);
    session->conn->send(encode_frame(reply));
    return;
  }
  if (message.kind != MessageKind::kRequest) return;  // ignore stray frames
  dispatch(session, std::move(message));
}

void RpcServer::dispatch(const std::shared_ptr<Session>& session,
                         RpcMessage message) {
  ++requests_served_;
  const auto it = methods_.find(message.method);
  const std::uint64_t id = message.request_id;

  // Root of the replication span chain: covers request arrival through the
  // (possibly much later) response. Handlers invoked below inherit it as
  // the ambient current span.
  auto& tracer = obs::Tracer::global();
  obs::SpanId span;
  if (tracer.enabled()) {
    span = tracer.begin("rpc.request", obs::Tracer::root_parent());
    tracer.attr(span, "method", message.method);
    tracer.attr(span, "peer", session->peer.peer);
  }

  auto respond = [session, id, span](Status status,
                                     std::vector<std::uint8_t> payload) {
    if (span.valid()) {
      auto& t = obs::Tracer::global();
      t.attr(span, "status", status.is_ok() ? "ok" : status.to_string());
      t.end(span);
    }
    if (session->conn->state() == net::TcpConnection::State::kClosed) return;
    RpcMessage reply;
    reply.kind = MessageKind::kResponse;
    reply.request_id = id;
    reply.status_code = static_cast<std::uint8_t>(status.code());
    reply.status_message = status.message();
    reply.payload = std::move(payload);
    session->conn->send(encode_frame(reply));
  };
  if (it == methods_.end()) {
    respond(make_error(ErrorCode::kNotFound,
                       "no such method: " + message.method),
            {});
    return;
  }
  const obs::CurrentSpanGuard guard(tracer, span);
  it->second(session->peer, session->id, message.payload, std::move(respond));
}

void RpcServer::set_metrics(const obs::MetricsScope& scope) {
  scope.expose("requests_served", &requests_served_);
  scope.expose("auth_failures", &auth_failures_);
}

}  // namespace gdmp::rpc
