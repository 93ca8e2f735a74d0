#include "gridftp/server.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/logging.h"
#include "gridftp/client.h"

namespace gdmp::gridftp {

namespace {
constexpr SimDuration kSessionIdleTimeout = 3600 * kSecond;
}

struct FtpServer::DataStream {
  net::TcpConnection::Ptr conn;
  BlockStreamParser parser;
  std::vector<std::uint8_t> hello_buffer;
  bool attached = false;
  bool closed = false;
  bool drained_counted = false;  // RETR: this stream finished this request
};

struct FtpServer::DataSession {
  std::uint64_t token = 0;
  net::Port data_port = 0;
  Bytes buffer = 0;
  int expected_streams = 1;
  std::vector<std::shared_ptr<DataStream>> streams;  // index -> stream
  int attached_count = 0;
  int closed_count = 0;
  bool failed = false;
  bool destroyed = false;
  sim::EventHandle idle_timer;

  struct {
    bool active = false;
    std::string path;
    std::vector<ByteRange> ranges;
    std::uint64_t seed = 0;
    Bytes total = 0;
    std::uint32_t crc = 0;
    rpc::RpcServer::Respond respond;
    int drained = 0;
    bool started = false;
  } retr;

  struct {
    bool active = false;
    std::string path;
    Bytes total = -1;
    Bytes reserved = 0;
    rpc::RpcServer::Respond respond;
  } stor;
  RangeSet received;
  std::uint64_t recv_seed = 0;
  bool recv_seed_set = false;
  bool seed_conflict = false;
  int eod_count = 0;

  /// Breaks the callback cycles of this session's streams (their parser
  /// and connection closures capture the session and stream shared_ptrs)
  /// and drops the streams.
  void release_streams() {
    for (auto& stream : streams) {
      if (!stream) continue;
      stream->parser.on_payload = nullptr;
      stream->parser.on_block_begin = nullptr;
      stream->parser.on_block_end = nullptr;
      stream->parser.on_eod = nullptr;
      stream->parser.on_error = nullptr;
      if (stream->conn) {
        stream->conn->on_data = nullptr;
        stream->conn->on_synthetic_data = nullptr;
        stream->conn->on_closed = nullptr;
        stream->conn->on_send_drained = nullptr;
        stream->conn.reset();
      }
    }
    streams.clear();
  }
};

FtpServer::FtpServer(net::TcpStack& stack, storage::DiskPool& pool,
                     const security::CertificateAuthority& ca,
                     security::Certificate credential, FtpServerConfig config)
    : stack_(stack),
      pool_(pool),
      ca_(ca),
      credential_(credential),
      config_(config),
      rpc_(stack, config.control_port, ca, std::move(credential),
           config.control_tcp),
      fault_rng_(config.fault_seed) {
  // The embedded RpcServer is a member, so these handlers cannot normally
  // outlive `this` — but ~FtpServer tears down data sessions before rpc_ is
  // destroyed, and handlers can fire from frames already queued in the
  // simulator during that window. Guard them all with the liveness sentinel.
  const auto guard = [this](auto handler) {
    return rpc::guarded(this, alive_, "ftp server stopped", handler);
  };
  rpc_.register_method(
      kCmdSetBuffer, guard([](auto& self, auto&, auto id, auto p, auto r) {
        self.handle_sbuf(id, p, std::move(r));
      }));
  rpc_.register_method(
      kCmdPassive, guard([](auto& self, auto&, auto id, auto p, auto r) {
        self.handle_pasv(id, p, std::move(r));
      }));
  rpc_.register_method(
      kCmdRetrieve, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_retr(p, std::move(r));
      }));
  rpc_.register_method(
      kCmdStore, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_stor(p, std::move(r));
      }));
  rpc_.register_method(
      kCmdSize, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_size(p, std::move(r));
      }));
  rpc_.register_method(
      kCmdChecksum, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_cksm(p, std::move(r));
      }));
  rpc_.register_method(
      kCmdDelete, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_dele(p, std::move(r));
      }));
  rpc_.register_method(
      kCmdTransferTo, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_xfer(p, std::move(r));
      }));
  rpc_.register_method(
      kCmdFluidGet, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_fget(p, std::move(r));
      }));
  rpc_.register_method(
      kCmdFluidPut, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_fput(p, std::move(r));
      }));
}

FtpServer::~FtpServer() {
  *alive_ = false;
  stop();
  for (auto& [token, session] : sessions_) {
    stack_.close_listener(session->data_port);
    stack_.simulator().cancel(session->idle_timer);
    session->release_streams();  // sessions still open at teardown
  }
}

Status FtpServer::start() { return rpc_.start(); }

void FtpServer::stop() { rpc_.stop(); }

void FtpServer::handle_sbuf(std::uint64_t session_id,
                            std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const Bytes buffer = r.i64();
  if (!r.ok() || buffer <= 0 || buffer > config_.max_data_buffer) {
    respond(make_error(ErrorCode::kInvalidArgument,
                       "SBUF out of range: " + std::to_string(buffer)),
            {});
    return;
  }
  // gdmp-lint: hot-alloc — per-session control state created on first SBUF, reused after
  control_state_[session_id].data_buffer = buffer;
  respond(Status::ok(), {});
}

void FtpServer::handle_pasv(std::uint64_t session_id,
                            std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const int streams = static_cast<int>(r.u32());  // 0 when truncated
  if (Status valid = check_stream_count(streams, config_.max_parallel_streams);
      !valid.is_ok()) {
    respond(std::move(valid), {});
    return;
  }
  // gdmp-lint: hot-alloc — one session object per PASV negotiation (control plane)
  auto session = std::make_shared<DataSession>();
  session->token = next_token_++;
  session->data_port = stack_.allocate_port();
  session->expected_streams = streams;
  session->streams.resize(static_cast<std::size_t>(streams));
  const auto cs = control_state_.find(session_id);
  session->buffer = cs != control_state_.end()
                        ? cs->second.data_buffer
                        : config_.default_data_buffer;

  net::TcpConfig data_tcp;
  data_tcp.send_buffer = session->buffer;
  data_tcp.recv_buffer = session->buffer;
  const Status listening = stack_.listen(
      session->data_port, data_tcp,
      [this, alive = std::weak_ptr<bool>(alive_),
       session](net::TcpConnection::Ptr conn) {
        if (alive.expired()) return;
        on_data_connection(session, std::move(conn));
      });
  if (!listening.is_ok()) {
    respond(listening, {});
    return;
  }
  std::weak_ptr<bool> alive = alive_;
  std::weak_ptr<DataSession> weak_session = session;
  session->idle_timer = stack_.simulator().schedule(
      kSessionIdleTimeout, [this, alive, weak_session] {
        if (alive.expired()) return;
        if (auto s = weak_session.lock(); s && !s->destroyed) {
          fail_session(s, make_error(ErrorCode::kTimedOut,
                                     "data session idle timeout"));
        }
      });
  // gdmp-lint: hot-alloc — session table keyed by token; one insert per negotiation
  sessions_.emplace(session->token, session);

  rpc::Writer w;
  w.u16(session->data_port);
  w.u64(session->token);
  respond(Status::ok(), w.take());
}

void FtpServer::on_data_connection(const std::shared_ptr<DataSession>& session,
                                   net::TcpConnection::Ptr conn) {
  // The stream is anonymous until its hello arrives.
  // gdmp-lint: hot-alloc — per-connection hello buffer, dropped once attached
  auto pending = std::make_shared<std::vector<std::uint8_t>>();
  std::weak_ptr<bool> alive = alive_;
  auto raw = conn.get();
  // Capture the connection weakly: the stack owns it while it is open, and
  // a strong self-capture (conn -> on_data -> conn) would leak it.
  std::weak_ptr<net::TcpConnection> weak_conn = conn;
  raw->on_data = [this, alive, session, weak_conn,
                  pending](std::span<const std::uint8_t> data) {
    if (alive.expired()) return;
    auto conn = weak_conn.lock();
    if (!conn) return;
    // gdmp-lint: hot-alloc — buffers at most one DataHello (fixed wire size) per stream
    pending->insert(pending->end(), data.begin(), data.end());
    if (pending->size() < DataHello::kWireSize) return;
    const auto hello = DataHello::decode(*pending);
    if (!hello || hello->session_token != session->token ||
        hello->stream_index >= session->streams.size()) {
      conn->abort();
      return;
    }
    std::vector<std::uint8_t> leftover(
        pending->begin() + DataHello::kWireSize, pending->end());
    // attach_stream() replaces conn->on_data — i.e. this very closure.
    // Move it into this frame first so its captures (session, conn,
    // pending) outlive the remainder of the call.
    auto keep_this_closure_alive = std::move(conn->on_data);
    attach_stream(session, *hello, conn);
    if (!leftover.empty() &&
        session->streams[hello->stream_index]) {
      session->streams[hello->stream_index]->parser.feed_data(leftover);
    }
  };
  raw->on_synthetic_data = [raw](Bytes) {
    raw->abort();  // synthetic bytes before hello: protocol violation
  };
}

void FtpServer::attach_stream(const std::shared_ptr<DataSession>& session,
                              const DataHello& hello,
                              net::TcpConnection::Ptr conn) {
  const std::size_t index = hello.stream_index;
  if (session->streams[index]) {
    conn->abort();  // duplicate stream index
    return;
  }
  // gdmp-lint: hot-alloc — one stream record per attached data connection
  auto stream = std::make_shared<DataStream>();
  stream->conn = conn;
  stream->attached = true;
  session->streams[index] = stream;
  ++session->attached_count;

  std::weak_ptr<bool> alive = alive_;
  // STOR receive path: parser callbacks update the session's range set.
  // Raw pointer, not the shared_ptr: the parser is a member of the stream,
  // so this callback cannot outlive it, and a strong capture would cycle
  // (stream -> parser -> on_payload -> stream).
  auto* stream_raw = stream.get();
  stream->parser.on_payload = [this, alive, session, stream_raw](
                                  const BlockHeader& header, Bytes fresh) {
    if (alive.expired()) return;
    const Bytes pos = header.offset + header.length -
                      (stream_raw->parser.payload_remaining() + fresh);
    session->received.add(pos, fresh);
    stats_.bytes_received += fresh;
  };
  stream->parser.on_block_begin = [session](const BlockHeader& header) {
    if (!session->recv_seed_set) {
      session->recv_seed = header.content_seed;
      session->recv_seed_set = true;
    } else if (session->recv_seed != header.content_seed) {
      session->seed_conflict = true;
    }
  };
  stream->parser.on_eod = [this, alive, session] {
    if (alive.expired()) return;
    ++session->eod_count;
    check_stor_complete(session);
  };
  stream->parser.on_error = [this, alive, session](const Status& status) {
    if (alive.expired()) return;
    fail_session(session, status);
  };

  conn->on_data = [stream](std::span<const std::uint8_t> data) {
    stream->parser.feed_data(data);
  };
  conn->on_synthetic_data = [stream](Bytes n) {
    stream->parser.feed_synthetic(n);
  };
  conn->on_closed = [this, alive, session, stream](const Status& status) {
    if (alive.expired()) return;
    stream->closed = true;
    ++session->closed_count;
    if (session->retr.active || session->stor.active) {
      fail_session(session,
                   status.is_ok()
                       ? make_error(ErrorCode::kUnavailable,
                                    "data stream closed mid-transfer")
                       : status);
      return;
    }
    if (session->closed_count >= session->attached_count &&
        session->attached_count == session->expected_streams) {
      destroy_session(session);
    }
  };

  maybe_start_retr(session);
  check_stor_complete(session);
}

void FtpServer::handle_retr(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::uint64_t token = r.u64();
  const std::string path = r.str();
  std::vector<ByteRange> ranges = read_ranges(r);
  if (!r.ok() || ranges.empty()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed RETR"), {});
    return;
  }
  auto idle = idle_session(token);
  if (!idle.is_ok()) {
    respond(idle.status(), {});
    return;
  }
  auto plan = plan_read(path, ranges);
  if (!plan.is_ok()) {
    respond(plan.status(), {});
    return;
  }
  (void)pool_.pin(path);  // transfers must not lose their source to eviction
  const std::shared_ptr<DataSession>& session = *idle;
  session->retr.active = true;
  session->retr.started = false;
  session->retr.path = path;
  session->retr.ranges = std::move(ranges);
  session->retr.seed = plan->seed;
  session->retr.total = plan->total;
  session->retr.crc = plan->crc;
  session->retr.respond = std::move(respond);
  session->retr.drained = 0;
  for (auto& stream : session->streams) {
    if (stream) stream->drained_counted = false;
  }
  ++stats_.retrievals;
  maybe_start_retr(session);
}

Result<std::shared_ptr<FtpServer::DataSession>> FtpServer::idle_session(
    std::uint64_t token) const {
  const auto sit = sessions_.find(token);
  if (sit == sessions_.end()) {
    return make_error(ErrorCode::kNotFound, "no such data session");
  }
  if (sit->second->retr.active || sit->second->stor.active) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "transfer already in progress");
  }
  return sit->second;
}

Result<FtpServer::ReadPlan> FtpServer::plan_read(
    const std::string& path, std::vector<ByteRange>& ranges) {
  auto file = pool_.lookup(path);
  if (!file.is_ok()) {
    return make_error(ErrorCode::kNotFound, "file not on disk: " + path);
  }
  // Resolve and validate ranges against the current file size.
  ReadPlan plan;
  plan.seed = file->content_seed;
  Crc32 crc;
  auto& memo = stack_.simulator().crc_memo();
  for (ByteRange& range : ranges) {
    if (range.length < 0) range.length = file->size - range.offset;
    if (range.offset < 0 || range.length < 0 ||
        range.offset + range.length > file->size) {
      return make_error(ErrorCode::kInvalidArgument, "range out of bounds");
    }
    plan.total += range.length;
    memo.update_synthetic(crc, plan.seed, range.offset, range.length);
  }
  plan.crc = crc.value();
  return plan;
}

std::uint64_t FtpServer::wire_seed(std::uint64_t seed) {
  if (config_.corrupt_probability > 0 &&
      fault_rng_.chance(config_.corrupt_probability)) {
    ++stats_.blocks_corrupted;
    return seed ^ 0xbadc0ffee0ddf00dULL;
  }
  return seed;
}

void FtpServer::emit_perf(const std::string& path, Bytes bytes,
                          std::size_t stripe, std::size_t stripe_count) {
  if (channel_ == nullptr || !channel_->has_perf_subscribers()) return;
  obs::PerfMarker marker;
  marker.time = stack_.simulator().now();
  marker.path = path;
  marker.bytes = bytes;
  marker.stripe = static_cast<std::uint32_t>(stripe);
  marker.stripe_count = static_cast<std::uint32_t>(stripe_count);
  channel_->perf(marker);
}

void FtpServer::maybe_start_retr(const std::shared_ptr<DataSession>& session) {
  if (!session->retr.active || session->retr.started) return;
  if (session->attached_count < session->expected_streams) return;
  session->retr.started = true;

  // One requested range is pre-partitioned across the streams; a restart's
  // multiple ranges go round-robin (stripe_ranges, shared with the fluid
  // endpoints so stripe indices always agree).
  const auto per_stream =
      stripe_ranges(session->retr.ranges, session->expected_streams);

  for (std::size_t i = 0; i < session->streams.size(); ++i) {
    auto& stream = session->streams[i];
    Bytes stream_bytes = 0;
    for (const ByteRange& range : per_stream[i]) {
      BlockHeader header;
      header.offset = range.offset;
      header.length = range.length;
      header.content_seed = wire_seed(session->retr.seed);
      rpc::Writer w;
      header.encode(w);
      stream->conn->send(w.take());
      stream->conn->send_synthetic(range.length);
      stream_bytes += range.length;
      stats_.bytes_sent += range.length;
    }
    // Server-side perf marker: bytes queued for this stripe (the wire
    // marker a monitoring client would receive over the control channel).
    emit_perf(session->retr.path, stream_bytes, i, session->streams.size());
    // End-of-data marker.
    BlockHeader eod;
    eod.offset = -1;
    rpc::Writer w;
    eod.encode(w);
    stream->conn->send(w.take());

    if (stream_bytes > 0) {
      pool_.disk().read(stream_bytes, [] {});  // read-ahead, pipelined
    }
    std::weak_ptr<bool> alive = alive_;
    auto stream_copy = stream;
    stream->conn->on_send_drained = [this, alive, session, stream_copy] {
      if (alive.expired()) return;
      if (stream_copy->drained_counted || !session->retr.active) return;
      stream_copy->drained_counted = true;
      finish_retr_stream(session);
    };
  }
}

void FtpServer::finish_retr_stream(
    const std::shared_ptr<DataSession>& session) {
  ++session->retr.drained;
  if (session->retr.drained < session->expected_streams) return;
  session->retr.active = false;
  (void)pool_.unpin(session->retr.path);
  rpc::Writer w;
  w.i64(session->retr.total);
  w.u32(session->retr.crc);
  auto respond = std::move(session->retr.respond);
  session->retr.respond = nullptr;
  respond(Status::ok(), w.take());
}

void FtpServer::handle_stor(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::uint64_t token = r.u64();
  const std::string path = r.str();
  const Bytes total = r.i64();
  if (!r.ok() || total < 0) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed STOR"), {});
    return;
  }
  auto idle = idle_session(token);
  if (!idle.is_ok()) {
    respond(idle.status(), {});
    return;
  }
  if (const Status reserved = pool_.reserve(total); !reserved.is_ok()) {
    respond(reserved, {});
    return;
  }
  const std::shared_ptr<DataSession>& session = *idle;
  session->stor.active = true;
  session->stor.path = path;
  session->stor.total = total;
  session->stor.reserved = total;
  session->stor.respond = std::move(respond);
  ++stats_.stores;
  check_stor_complete(session);
}

void FtpServer::check_stor_complete(
    const std::shared_ptr<DataSession>& session) {
  if (!session->stor.active) return;
  if (session->eod_count < session->expected_streams) return;
  if (!session->received.covers(0, session->stor.total)) {
    fail_session(session, make_error(ErrorCode::kAborted,
                                     "incomplete STOR payload"));
    return;
  }
  session->stor.active = false;
  pool_.release_reservation(session->stor.reserved);
  session->stor.reserved = 0;
  auto respond = std::move(session->stor.respond);
  session->stor.respond = nullptr;
  if (session->seed_conflict) {
    respond(make_error(ErrorCode::kCorrupted,
                       "inconsistent block content in STOR"),
            {});
    return;
  }
  commit_store(session->stor.path, session->stor.total, session->recv_seed,
               respond);
}

void FtpServer::commit_store(const std::string& path, Bytes total,
                             std::uint64_t seed,
                             const rpc::RpcServer::Respond& respond) {
  auto added = pool_.add_file(path, total, seed, stack_.simulator().now());
  if (!added.is_ok()) {
    respond(added.status(), {});
    return;
  }
  pool_.disk().write(total, [] {});
  rpc::Writer w;
  w.u32(stack_.simulator().crc_memo().crc32_synthetic(seed, 0, total));
  respond(Status::ok(), w.take());
}

void FtpServer::handle_size(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::string path = r.str();
  auto file = pool_.peek(path);
  if (!file.is_ok()) {
    respond(file.status(), {});
    return;
  }
  rpc::Writer w;
  w.i64(file->size);
  respond(Status::ok(), w.take());
}

void FtpServer::handle_cksm(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::string path = r.str();
  auto file = pool_.peek(path);
  if (!file.is_ok()) {
    respond(file.status(), {});
    return;
  }
  rpc::Writer w;
  w.u32(file->crc());
  respond(Status::ok(), w.take());
}

void FtpServer::handle_dele(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::string path = r.str();
  respond(pool_.remove(path), {});
}

void FtpServer::handle_xfer(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::string path = r.str();
  const auto dest_node = static_cast<net::NodeId>(r.u32());
  const auto dest_port = static_cast<net::Port>(r.u16());
  const std::string dest_path = r.str();
  const int streams = static_cast<int>(r.u32());
  const Bytes buffer = r.i64();
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed XFER"), {});
    return;
  }
  ++stats_.third_party;
  // Third-party control: this server acts as the sending party of a
  // server-to-server transfer that the remote client orchestrates.
  // gdmp-lint: hot-alloc — one outbound client per third-party transfer request
  auto client = std::make_shared<FtpClient>(stack_, ca_, credential_);
  TransferOptions options;
  options.parallel_streams = streams;
  options.tcp_buffer = buffer;
  options.flow_engine = config_.flow_engine;
  client->put(dest_node, dest_port, pool_, path, dest_path, options,
              [client, respond = std::move(respond)](
                  Result<TransferResult> result) {
                if (!result.is_ok()) {
                  respond(result.status(), {});
                  return;
                }
                rpc::Writer w;
                w.i64(result->bytes);
                w.u32(result->crc);
                respond(Status::ok(), w.take());
              });
}

void FtpServer::handle_fget(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::string path = r.str();
  const int streams = static_cast<int>(r.u32());
  std::vector<ByteRange> ranges = read_ranges(r);
  if (!r.ok() || ranges.empty()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed FGET"), {});
    return;
  }
  if (Status valid = check_stream_count(streams, config_.max_parallel_streams);
      !valid.is_ok()) {
    respond(std::move(valid), {});
    return;
  }
  auto plan = plan_read(path, ranges);
  if (!plan.is_ok()) {
    respond(plan.status(), {});
    return;
  }
  ++stats_.retrievals;
  stats_.bytes_sent += plan->total;
  if (plan->total > 0) pool_.disk().read(plan->total, [] {});  // read-ahead, pipelined

  // One seed per stripe: the fluid analogue of per-block content seeds. A
  // poisoned stripe fails the client's CRC vote and gets re-requested, so
  // the restart machinery is identical on both transfer models. The stripe
  // layout is stripe_ranges(), the same partition the client derives.
  const auto per_stream = stripe_ranges(ranges, streams);
  rpc::Writer w;
  w.i64(plan->total);
  w.u32(plan->crc);
  w.u32(static_cast<std::uint32_t>(per_stream.size()));
  for (std::size_t i = 0; i < per_stream.size(); ++i) {
    Bytes stripe_bytes = 0;
    for (const ByteRange& range : per_stream[i]) stripe_bytes += range.length;
    if (stripe_bytes == 0) {
      w.u64(plan->seed);
      continue;
    }
    w.u64(wire_seed(plan->seed));
    // Server-side perf marker: bytes committed to this stripe's flow.
    emit_perf(path, stripe_bytes, i, per_stream.size());
  }
  respond(Status::ok(), w.take());
}

void FtpServer::handle_fput(std::span<const std::uint8_t> params,
                            rpc::RpcServer::Respond respond) {
  rpc::Reader r(params);
  const std::string path = r.str();
  const Bytes total = r.i64();
  const std::uint64_t seed = r.u64();
  if (!r.ok() || total < 0) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed FPUT"), {});
    return;
  }
  // The commit arrives after the flows have drained, so reservation and
  // materialisation collapse into one step (cf. check_stor_complete).
  if (const Status reserved = pool_.reserve(total); !reserved.is_ok()) {
    respond(reserved, {});
    return;
  }
  pool_.release_reservation(total);
  ++stats_.stores;
  stats_.bytes_received += total;
  commit_store(path, total, seed, respond);
}

void FtpServer::fail_session(const std::shared_ptr<DataSession>& session,
                             const Status& status) {
  if (session->destroyed) return;
  session->failed = true;
  if (session->retr.active) {
    session->retr.active = false;
    (void)pool_.unpin(session->retr.path);
    auto respond = std::move(session->retr.respond);
    session->retr.respond = nullptr;
    if (respond) respond(status, {});
  }
  if (session->stor.active) {
    session->stor.active = false;
    pool_.release_reservation(session->stor.reserved);
    session->stor.reserved = 0;
    auto respond = std::move(session->stor.respond);
    session->stor.respond = nullptr;
    if (respond) respond(status, {});
  }
  destroy_session(session);
}

void FtpServer::destroy_session(const std::shared_ptr<DataSession>& session) {
  if (session->destroyed) return;
  session->destroyed = true;
  stack_.simulator().cancel(session->idle_timer);
  stack_.close_listener(session->data_port);
  for (auto& stream : session->streams) {
    if (stream && stream->conn && !stream->closed) {
      stream->conn->on_closed = nullptr;
      stream->conn->on_data = nullptr;
      stream->conn->on_synthetic_data = nullptr;
      stream->conn->on_send_drained = nullptr;
      stream->conn->close();
    }
  }
  sessions_.erase(session->token);
  // The parser/conn callbacks of already-closed streams still capture the
  // session and stream shared_ptrs (a reference cycle that would leak the
  // whole session web). One of those closures may be the frame we are
  // currently executing in, so break the cycle from a fresh event instead
  // of clearing the callbacks inline.
  stack_.simulator().schedule(0, [session] { session->release_streams(); });
}

void FtpServer::set_metrics(const obs::MetricsScope& scope) {
  scope.expose("retrievals", &stats_.retrievals);
  scope.expose("stores", &stats_.stores);
  scope.expose("third_party", &stats_.third_party);
  scope.expose("blocks_corrupted", &stats_.blocks_corrupted);
  scope.expose("bytes_sent", &stats_.bytes_sent);
  scope.expose("bytes_received", &stats_.bytes_received);
  rpc_.set_metrics(scope.scope("rpc"));
}

}  // namespace gdmp::gridftp
