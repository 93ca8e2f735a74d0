#include "gridftp/client.h"

#include <algorithm>
#include <limits>

#include "common/crc32.h"
#include "common/logging.h"
#include "flow/flow_engine.h"

namespace gdmp::gridftp {
namespace {

/// Control-channel call timeout of a transfer session; transfers
/// legitimately take minutes.
constexpr SimDuration kTransferRpcTimeout = 7200 * kSecond;

/// Content identity of a stored *partial* file: a subrange of a synthetic
/// stream is itself a fresh stream with a derived seed (DESIGN.md §2).
std::uint64_t derive_partial_seed(std::uint64_t seed, Bytes offset,
                                  Bytes length) noexcept {
  std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(offset + 1));
  z ^= 0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(length);
  z = (z ^ (z >> 30)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The smallest block content seed above `after` (any seed when `after` is
/// empty). Walking it from nullopt visits the distinct seeds in ascending
/// order without building a set; a poisoned seed is `seed ^ const`, so a
/// verify sees at most two.
std::optional<std::uint64_t> next_block_seed(
    const std::map<Bytes, std::pair<Bytes, std::uint64_t>>& blocks,
    std::optional<std::uint64_t> after) noexcept {
  std::optional<std::uint64_t> next;
  for (const auto& [offset, block] : blocks) {
    const std::uint64_t seed = block.second;
    if ((!after || seed > *after) && (!next || seed < *next)) next = seed;
  }
  return next;
}

}  // namespace

struct FtpClient::Transfer : std::enable_shared_from_this<Transfer> {
  // Immutable parameters.
  net::NodeId server = net::kInvalidNode;
  net::Port control_port = 0;
  TransferOptions options;
  Done done;
  bool is_put = false;
  std::string remote_path;
  std::string local_path;
  storage::DiskPool* pool = nullptr;  // destination (get) / source (put)

  // Control plane.
  std::unique_ptr<rpc::RpcClient> rpc;
  std::uint64_t token = 0;
  net::Port data_port = 0;

  // Resolved transfer geometry.
  Bytes file_size = 0;
  std::vector<ByteRange> requested;      // original resolved ranges
  std::vector<ByteRange> attempt_ranges; // what this attempt moves

  // Packet data plane: one TCP stream per stripe.
  std::vector<net::TcpConnection::Ptr> streams;
  std::vector<std::unique_ptr<BlockStreamParser>> parsers;
  int streams_established = 0;

  // Fluid data plane (options.flow_engine set): one flow per stripe.
  std::vector<flow::FlowId> flows;
  std::vector<std::vector<ByteRange>> flow_ranges;  // stripe -> ranges
  std::vector<std::uint64_t> flow_seeds;            // stripe -> content seed
  std::vector<std::uint8_t> fluid_reply;            // saved FGET reply
  int flows_outstanding = 0;

  // What a get received, on either plane.
  RangeSet received;
  std::map<Bytes, std::pair<Bytes, std::uint64_t>> blocks;  // offset -> {len, seed}
  Bytes payload_bytes = 0;  // moved so far; a failed transfer's summary bytes

  // Put-side bookkeeping.
  std::uint64_t source_seed = 0;
  std::uint32_t source_crc = 0;

  // Outcome accumulation.
  SimTime started_at = 0;
  int attempts = 0;
  std::unique_ptr<sim::PeriodicTimer> monitor;  // perf subscribers only
  bool finished = false;

  // Observability: transfer span, per-stream child spans, and per-stripe
  // cumulative byte counters (a fluid stripe's is set when its flow ends).
  obs::SpanId span;
  std::vector<obs::SpanId> stream_spans;
  std::vector<Bytes> stream_bytes;

  /// Tears down this attempt's data plane: the TCP streams or the fluid
  /// flows, whichever is in use (the other is empty).
  void close_data_plane() {
    auto& tracer = obs::Tracer::global();
    for (const obs::SpanId stream_span : stream_spans) {
      tracer.end(stream_span);
    }
    stream_spans.clear();
    for (auto& stream : streams) {
      if (!stream) continue;
      stream->on_data = nullptr;
      stream->on_synthetic_data = nullptr;
      stream->on_closed = nullptr;
      stream->on_established = nullptr;
      if (stream->state() != net::TcpConnection::State::kClosed) {
        stream->close();
      }
    }
    streams.clear();
    parsers.clear();
    for (const flow::FlowId id : flows) {
      options.flow_engine->cancel(id);  // FlowDone callbacks no-op: epoch/finished guards
    }
    flows.clear();
    flows_outstanding = 0;
  }

  /// Marks the transfer finished and releases everything it holds open:
  /// the perf monitor, the data plane and the control channel.
  void shut_down() {
    finished = true;
    if (monitor) {
      monitor->stop();
      // The timer's callback captures this transfer; destroying the timer
      // breaks that reference cycle (stop() alone leaves the closure alive).
      monitor.reset();
    }
    close_data_plane();
    if (rpc) rpc->close();
  }

  std::int64_t sum_retransmits() const {
    std::int64_t total = 0;
    for (const auto& stream : streams) {
      if (stream) total += stream->stats().retransmits;
    }
    return total;
  }
};

FtpClient::FtpClient(net::TcpStack& stack,
                     const security::CertificateAuthority& ca,
                     security::Certificate credential)
    : stack_(stack), ca_(ca), credential_(std::move(credential)) {}

FtpClient::~FtpClient() {
  *alive_ = false;
  // Expire the weak guards now, not at member destruction: the drains below
  // fire callbacks synchronously, and those must already see themselves as
  // orphaned (the control-RPC boxes they'd otherwise dereference are empty).
  alive_.reset();
  // Settle every in-flight transfer: queued simulator frames are dropped by
  // the alive_ guards, so without this the pending `done` callbacks would
  // never fire. Each fires exactly once, with kAborted.
  auto in_flight = std::move(in_flight_);
  for (std::weak_ptr<Transfer>& weak : in_flight) {
    auto transfer = weak.lock();
    if (!transfer || transfer->finished) continue;
    transfer->shut_down();
    if (transfer->span.valid()) {
      auto& tracer = obs::Tracer::global();
      tracer.attr(transfer->span, "status", "cancelled: client destroyed");
      tracer.end(transfer->span);
    }
    if (transfer->done) {
      Done done = std::move(transfer->done);
      done(make_error(ErrorCode::kAborted, "ftp client destroyed"));
    }
  }
  // Control-plane RPC clients are owned by their own completion lambdas;
  // left alone they would park the callbacks until the RPC timeout fires.
  // Destroying each pending client drains its calls (kAborted) now.
  auto control = std::move(control_rpcs_);
  for (auto& weak : control) {
    auto holder = weak.lock();
    if (!holder || !*holder) continue;
    auto client = std::move(*holder);
    client.reset();
  }
}

FtpClient::ControlRpc FtpClient::make_control_rpc(net::NodeId server,
                                                  net::Port port,
                                                  SimDuration timeout) {
  auto rpc = std::make_shared<std::unique_ptr<rpc::RpcClient>>(
      make_rpc(server, port, timeout));
  std::erase_if(control_rpcs_, [](const auto& w) { return w.expired(); });
  control_rpcs_.push_back(rpc);
  return rpc;
}

std::unique_ptr<rpc::RpcClient> FtpClient::make_rpc(
    net::NodeId server, net::Port port, SimDuration timeout) const {
  rpc::RpcClientConfig config;
  config.call_timeout = timeout;
  return std::make_unique<rpc::RpcClient>(stack_, server, port, ca_,
                                          credential_, config);
}

std::shared_ptr<FtpClient::Transfer> FtpClient::make_transfer(
    net::NodeId server, net::Port port, bool is_put,
    const std::string& remote_path, const std::string& local_path,
    storage::DiskPool* pool, const TransferOptions& options, Done done) {
  auto transfer = std::make_shared<Transfer>();
  transfer->server = server;
  transfer->control_port = port;
  transfer->options = options;
  transfer->done = std::move(done);
  transfer->is_put = is_put;
  transfer->remote_path = remote_path;
  transfer->local_path = local_path;
  transfer->pool = pool;
  transfer->started_at = stack_.simulator().now();
  transfer->rpc = make_rpc(server, port, kTransferRpcTimeout);
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    transfer->span = tracer.begin("gridftp.transfer", options.parent_span);
    tracer.attr(transfer->span, "streams",
                static_cast<std::int64_t>(options.parallel_streams));
  }
  tracer.attr(transfer->span, "path", remote_path);
  std::erase_if(in_flight_,
                [](const std::weak_ptr<Transfer>& t) { return t.expired(); });
  in_flight_.push_back(transfer);
  return transfer;
}

void FtpClient::get(net::NodeId server, net::Port control_port,
                    const std::string& remote_path,
                    const std::string& local_path, storage::DiskPool* pool,
                    const TransferOptions& options, Done done) {
  auto transfer = make_transfer(server, control_port, /*is_put=*/false,
                                remote_path, local_path, pool, options,
                                std::move(done));
  std::weak_ptr<bool> alive = alive_;
  // Resolve the file size first (needed for open-ended ranges and bounds).
  rpc::Writer w;
  w.str(remote_path);
  transfer->rpc->call(
      kCmdSize, w.take(),
      [this, alive, transfer](Status status,
                              std::vector<std::uint8_t> reply) {
        if (alive.expired() || transfer->finished) return;
        if (!status.is_ok()) {
          complete(transfer, status);
          return;
        }
        rpc::Reader r(reply);
        transfer->file_size = r.i64();
        ByteRange range = transfer->options.range;
        if (range.length < 0) range.length = transfer->file_size - range.offset;
        if (range.offset < 0 || range.length < 0 ||
            range.offset + range.length > transfer->file_size) {
          complete(transfer, make_error(ErrorCode::kInvalidArgument,
                                        "requested range out of bounds"));
          return;
        }
        transfer->requested = {range};
        transfer->attempt_ranges = {range};
        start_attempt(transfer);
      });
}

void FtpClient::put(net::NodeId server, net::Port control_port,
                    storage::DiskPool& pool, const std::string& local_path,
                    const std::string& remote_path,
                    const TransferOptions& options, Done done) {
  auto transfer = make_transfer(server, control_port, /*is_put=*/true,
                                remote_path, local_path, &pool, options,
                                std::move(done));
  auto file = pool.lookup(local_path);
  if (!file.is_ok()) {
    complete(transfer, file.status());
    return;
  }
  transfer->file_size = file->size;
  transfer->source_seed = file->content_seed;
  transfer->source_crc = file->crc();
  transfer->requested = {ByteRange{0, file->size}};
  transfer->attempt_ranges = transfer->requested;
  start_attempt(transfer);
}

void FtpClient::start_attempt(const std::shared_ptr<Transfer>& transfer) {
  ++transfer->attempts;
  transfer->close_data_plane();
  std::weak_ptr<bool> alive = alive_;
  const int streams = transfer->options.parallel_streams;

  if (transfer->options.flow_engine == nullptr) {
    // Packet get or put: SBUF, PASV, open the data streams, then RETR or
    // STOR (streams_ready).
    rpc::Writer sbuf;
    sbuf.i64(transfer->options.tcp_buffer);
    transfer->rpc->call(
        kCmdSetBuffer, sbuf.take(),
        [this, alive, transfer](Status status, std::vector<std::uint8_t>) {
          if (alive.expired() || transfer->finished) return;
          if (!status.is_ok()) {
            complete(transfer, status);
            return;
          }
          rpc::Writer pasv;
          pasv.u32(static_cast<std::uint32_t>(
              transfer->options.parallel_streams));
          transfer->rpc->call(
              kCmdPassive, pasv.take(),
              [this, alive, transfer](Status pasv_status,
                                      std::vector<std::uint8_t> reply) {
                if (alive.expired() || transfer->finished) return;
                if (!pasv_status.is_ok()) {
                  complete(transfer, pasv_status);
                  return;
                }
                rpc::Reader r(reply);
                transfer->data_port = r.u16();
                transfer->token = r.u64();
                open_streams(transfer);
              });
        });
    return;
  }

  if (transfer->is_put) {
    // FPUT carries no stream count, so only the lower bound is checked.
    if (Status valid =
            check_stream_count(streams, std::numeric_limits<int>::max());
        !valid.is_ok()) {
      complete(transfer, std::move(valid));
      return;
    }
    transfer->flow_ranges = stripe_ranges(transfer->attempt_ranges, streams);
    launch_flows(transfer);
    return;
  }

  // Fluid get: one metadata round-trip replaces SBUF/PASV/RETR. The server
  // resolves the ranges, charges the source disk read, and returns the
  // content identity per stripe (a poisoned stripe seed is the fluid
  // analogue of a corrupted wire block — the shared verification path
  // re-requests it).
  rpc::Writer w;
  w.str(transfer->remote_path);
  w.u32(static_cast<std::uint32_t>(streams));
  write_ranges(w, transfer->attempt_ranges);
  transfer->rpc->call(
      kCmdFluidGet, w.take(),
      [this, alive, transfer](Status status, std::vector<std::uint8_t> reply) {
        if (alive.expired() || transfer->finished) return;
        if (!status.is_ok()) {
          finish_get_attempt(transfer, std::move(status), reply);
          return;
        }
        rpc::Reader r(reply);
        (void)r.i64();  // total bytes; re-read by finish_get_attempt
        (void)r.u32();  // server CRC; re-read by finish_get_attempt
        const std::uint32_t stripes = r.u32();
        transfer->flow_seeds.clear();
        for (std::uint32_t i = 0; i < stripes && r.ok(); ++i) {
          transfer->flow_seeds.push_back(r.u64());
        }
        if (!r.ok() || stripes == 0) {
          complete(transfer,
                   make_error(ErrorCode::kInternal, "malformed FGET reply"));
          return;
        }
        transfer->fluid_reply = std::move(reply);
        transfer->flow_ranges = stripe_ranges(transfer->attempt_ranges,
                                              static_cast<int>(stripes));
        launch_flows(transfer);
      });
}

void FtpClient::open_streams(const std::shared_ptr<Transfer>& transfer) {
  const int n = transfer->options.parallel_streams;
  net::TcpConfig tcp;
  tcp.send_buffer = transfer->options.tcp_buffer;
  tcp.recv_buffer = transfer->options.tcp_buffer;
  std::weak_ptr<bool> alive = alive_;

  transfer->streams.resize(static_cast<std::size_t>(n));
  transfer->parsers.resize(static_cast<std::size_t>(n));
  transfer->streams_established = 0;
  transfer->stream_bytes.assign(static_cast<std::size_t>(n), 0);
  transfer->stream_spans.assign(static_cast<std::size_t>(n), obs::SpanId{});
  auto& tracer = obs::Tracer::global();
  for (int i = 0; i < n; ++i) {
    auto conn = stack_.connect(transfer->server, transfer->data_port, tcp);
    transfer->streams[static_cast<std::size_t>(i)] = conn;
    if (tracer.enabled()) {
      const obs::SpanId stream_span =
          tracer.begin("gridftp.stream", transfer->span);
      tracer.attr(stream_span, "stripe", static_cast<std::int64_t>(i));
      transfer->stream_spans[static_cast<std::size_t>(i)] = stream_span;
    }
    auto parser = std::make_unique<BlockStreamParser>();
    auto* parser_raw = parser.get();

    parser_raw->on_payload = [transfer, parser_raw, i](
                                 const BlockHeader& header, Bytes fresh) {
      const Bytes pos = header.offset + header.length -
                        (parser_raw->payload_remaining() + fresh);
      transfer->received.add(pos, fresh);
      transfer->payload_bytes += fresh;
      transfer->stream_bytes[static_cast<std::size_t>(i)] += fresh;
    };
    parser_raw->on_block_end = [transfer](const BlockHeader& header) {
      transfer->blocks[header.offset] = {header.length, header.content_seed};
    };
    parser_raw->on_error = [this, alive, transfer](const Status& status) {
      if (alive.expired() || transfer->finished) return;
      complete(transfer, status);
    };
    transfer->parsers[static_cast<std::size_t>(i)] = std::move(parser);

    conn->on_data = [parser_raw](std::span<const std::uint8_t> data) {
      parser_raw->feed_data(data);
    };
    conn->on_synthetic_data = [parser_raw](Bytes bytes) {
      parser_raw->feed_synthetic(bytes);
    };
    // Weak self-reference: a strong `conn` capture in its own callback slot
    // would cycle (conn -> on_established -> conn) and leak failed streams.
    std::weak_ptr<net::TcpConnection> weak_conn = conn;
    conn->on_established = [this, alive, transfer, weak_conn, i,
                            n](const Status& status) {
      if (alive.expired() || transfer->finished) return;
      if (!status.is_ok()) {
        complete(transfer, status);
        return;
      }
      auto conn = weak_conn.lock();
      if (!conn) return;
      DataHello hello;
      hello.session_token = transfer->token;
      hello.stream_index = static_cast<std::uint16_t>(i);
      rpc::Writer w;
      hello.encode(w);
      conn->send(w.take());
      if (++transfer->streams_established == n) streams_ready(transfer);
    };
    // Stream failures surface through the server's RETR/STOR error reply
    // (the server observes the same close); nothing to do here beyond
    // ignoring orderly teardown.
    conn->on_closed = [](const Status&) {};
  }
  ensure_monitor(transfer);
}

void FtpClient::streams_ready(const std::shared_ptr<Transfer>& transfer) {
  rpc::Writer command;
  command.u64(transfer->token);
  command.str(transfer->remote_path);
  if (!transfer->is_put) {
    write_ranges(command, transfer->attempt_ranges);
    call_closing(transfer, kCmdRetrieve, command.take());
    return;
  }
  // Issue STOR, then stream the blocks in the stripe layout of a RETR.
  command.i64(transfer->file_size);
  call_closing(transfer, kCmdStore, command.take());
  const auto per_stream = stripe_ranges(transfer->attempt_ranges,
                                        transfer->options.parallel_streams);
  for (std::size_t i = 0; i < transfer->streams.size(); ++i) {
    auto& conn = transfer->streams[i];
    for (const ByteRange& part : per_stream[i]) {
      BlockHeader header;
      header.offset = part.offset;
      header.length = part.length;
      header.content_seed = transfer->source_seed;
      rpc::Writer w;
      header.encode(w);
      conn->send(w.take());
      conn->send_synthetic(part.length);
      transfer->payload_bytes += part.length;
      transfer->stream_bytes[i] += part.length;
      transfer->pool->disk().read(part.length, [] {});
    }
    BlockHeader eod;
    eod.offset = -1;
    rpc::Writer w;
    eod.encode(w);
    conn->send(w.take());
  }
}

void FtpClient::launch_flows(const std::shared_ptr<Transfer>& transfer) {
  const std::size_t stripes = transfer->flow_ranges.size();
  transfer->flows.assign(stripes, flow::FlowId{});
  transfer->stream_bytes.assign(stripes, 0);
  transfer->flows_outstanding = 0;
  ensure_monitor(transfer);

  flow::FlowEngine* engine = transfer->options.flow_engine;
  std::weak_ptr<bool> alive = alive_;
  const int attempt = transfer->attempts;
  const net::NodeId local = stack_.node().id();
  for (std::size_t i = 0; i < stripes; ++i) {
    Bytes stripe_bytes = 0;
    for (const ByteRange& range : transfer->flow_ranges[i]) {
      stripe_bytes += range.length;
    }
    if (stripe_bytes == 0) continue;
    if (transfer->is_put) transfer->pool->disk().read(stripe_bytes, [] {});
    flow::FlowSpec spec;
    spec.src = transfer->is_put ? local : transfer->server;
    spec.dst = transfer->is_put ? transfer->server : local;
    spec.bytes = stripe_bytes;
    spec.window = transfer->options.tcp_buffer;
    ++transfer->flows_outstanding;
    transfer->flows[i] = engine->start(
        spec,
        [this, alive, transfer, i, attempt](const flow::FlowDone& done) {
          if (alive.expired() || transfer->finished ||
              transfer->attempts != attempt || !done.ok) {
            return;
          }
          Bytes stripe_total = 0;
          for (const ByteRange& range : transfer->flow_ranges[i]) {
            if (!transfer->is_put) {
              transfer->received.add(range.offset, range.length);
              transfer->blocks[range.offset] = {range.length,
                                                transfer->flow_seeds[i]};
            }
            stripe_total += range.length;
          }
          transfer->stream_bytes[i] = stripe_total;
          transfer->payload_bytes += stripe_total;
          if (--transfer->flows_outstanding == 0) flows_drained(transfer);
        });
    if (!transfer->flows[i].valid()) {
      --transfer->flows_outstanding;
      complete(transfer, make_error(ErrorCode::kUnavailable,
                                    "no route for fluid flow"));
      return;
    }
  }
  if (transfer->flows_outstanding == 0) flows_drained(transfer);
}

void FtpClient::flows_drained(const std::shared_ptr<Transfer>& transfer) {
  transfer->flows.clear();
  if (!transfer->is_put) {
    finish_get_attempt(transfer, Status::ok(), transfer->fluid_reply);
    return;
  }
  // All payload delivered: commit on the server (FPUT charges the
  // destination disk write and replies with the stored CRC, which
  // finish_put_attempt verifies as after a STOR).
  rpc::Writer commit;
  commit.str(transfer->remote_path);
  commit.i64(transfer->file_size);
  commit.u64(transfer->source_seed);
  call_closing(transfer, kCmdFluidPut, commit.take());
}

void FtpClient::call_closing(const std::shared_ptr<Transfer>& transfer,
                             const char* command,
                             std::vector<std::uint8_t> params) {
  transfer->rpc->call(
      command, std::move(params),
      [this, alive = std::weak_ptr<bool>(alive_), transfer](
          Status status, std::vector<std::uint8_t> reply) {
        if (alive.expired() || transfer->finished) return;
        if (transfer->is_put) {
          finish_put_attempt(transfer, std::move(status), reply);
        } else {
          finish_get_attempt(transfer, std::move(status), reply);
        }
      });
}

void FtpClient::ensure_monitor(const std::shared_ptr<Transfer>& transfer) {
  // Monitoring on demand (DESIGN.md §5m): the marker stream is the
  // monitor's only output, so nobody watching means no timer at all.
  const obs::TransferChannel* channel = transfer->options.channel;
  if (transfer->monitor || channel == nullptr ||
      !channel->has_perf_subscribers()) {
    return;
  }
  std::weak_ptr<bool> alive = alive_;
  transfer->monitor = std::make_unique<sim::PeriodicTimer>(
      stack_.simulator(), transfer->options.monitor_interval,
      [this, alive, transfer] {
        if (alive.expired()) return;
        monitor_tick(transfer);
      });
  transfer->monitor->start();
}

void FtpClient::monitor_tick(const std::shared_ptr<Transfer>& transfer) {
  // Wire-level perf markers: one per stripe, cumulative bytes. A running
  // fluid stripe progresses inside the engine and is read there; a finished
  // one, and every packet stream (its parser counts as bytes arrive), reads
  // stream_bytes. The tick only reads: whether it runs cannot move a
  // transfer, so a subscriber never changes a sim-time result.
  const obs::TransferChannel* channel = transfer->options.channel;
  if (!channel->has_perf_subscribers()) return;  // all left since arming
  const flow::FlowEngine* engine = transfer->options.flow_engine;
  obs::PerfMarker marker;
  marker.time = stack_.simulator().now();
  marker.peer = transfer->options.peer;
  marker.path = transfer->remote_path;
  marker.stripe_count =
      static_cast<std::uint32_t>(transfer->stream_bytes.size());
  for (std::size_t s = 0; s < transfer->stream_bytes.size(); ++s) {
    const bool running =
        s < transfer->flows.size() && engine->active(transfer->flows[s]);
    marker.stripe = static_cast<std::uint32_t>(s);
    marker.bytes = running ? engine->transferred(transfer->flows[s])
                           : transfer->stream_bytes[s];
    channel->perf(marker);
  }
}

void FtpClient::finish_get_attempt(const std::shared_ptr<Transfer>& transfer,
                                   Status status,
                                   std::span<const std::uint8_t> reply) {
  if (!status.is_ok()) {
    // Recoverable failure: re-request whatever is still missing.
    std::vector<ByteRange> missing;
    for (const ByteRange& range : transfer->requested) {
      auto holes = transfer->received.missing_within(range.offset, range.length);
      missing.insert(missing.end(), holes.begin(), holes.end());
    }
    if (missing.empty()) missing = transfer->requested;
    retry_or_fail(transfer, std::move(missing), status);
    return;
  }
  rpc::Reader r(reply);
  (void)r.i64();  // bytes reported by server
  const std::uint32_t server_crc = r.u32();
  if (transfer->attempts == 1) {
    // The first attempt covers the full requested range; its server-side
    // CRC is the reference for "what the source file actually contains".
    transfer->source_crc = server_crc;
  }

  auto& tracer = obs::Tracer::global();
  obs::SpanId crc_span;
  if (tracer.enabled()) {
    crc_span = tracer.begin("gridftp.crc_check", transfer->span);
  }

  // End-to-end verification. `source_crc` (first-attempt server CRC over
  // the full range) tells apart wire corruption (retry helps) from a source
  // replica that disagrees with the catalog (retry cannot help).
  if (transfer->options.expected_crc &&
      transfer->source_crc != *transfer->options.expected_crc) {
    tracer.attr(crc_span, "result", "catalog_mismatch");
    tracer.end(crc_span);
    complete(transfer,
             make_error(ErrorCode::kCorrupted,
                        "replica does not match catalog checksum"));
    return;
  }

  // Identify the file's true content: the smallest block seed whose
  // full-range CRC matches the server-side reference. Blocks carrying any
  // other seed were corrupted on the wire and are re-requested. A
  // zero-byte request moves no block, so there is no seed to vote on, and
  // none is needed: the CRC of zero bytes is the same for every seed.
  const ByteRange& whole = transfer->requested.front();
  std::uint64_t true_seed = 0;
  bool seed_known = whole.length == 0;
  auto& memo = stack_.simulator().crc_memo();
  for (auto seed = next_block_seed(transfer->blocks, std::nullopt); seed;
       seed = next_block_seed(transfer->blocks, seed)) {
    Crc32 crc;
    for (const ByteRange& range : transfer->requested) {
      memo.update_synthetic(crc, *seed, range.offset, range.length);
    }
    if (crc.value() == transfer->source_crc) {
      true_seed = *seed;
      seed_known = true;
      break;
    }
  }

  std::vector<ByteRange> bad;
  if (!seed_known) {
    // Every received block is corrupted (or the stream is inconsistent):
    // nothing usable — re-request the whole range.
    bad = transfer->requested;
  } else {
    for (const auto& [offset, block] : transfer->blocks) {
      if (block.second != true_seed) {
        bad.push_back(ByteRange{offset, block.first});
      }
    }
    for (const ByteRange& range : transfer->requested) {
      auto holes =
          transfer->received.missing_within(range.offset, range.length);
      bad.insert(bad.end(), holes.begin(), holes.end());
    }
  }
  tracer.attr(crc_span, "result", bad.empty() ? "ok" : "bad_ranges");
  tracer.end(crc_span);
  if (!bad.empty()) {
    retry_or_fail(transfer, std::move(bad),
                  make_error(ErrorCode::kCorrupted,
                             "CRC/coverage check failed after transfer"));
    return;
  }

  // Success: optionally materialize the file locally.
  const bool full_file =
      whole.offset == 0 && whole.length == transfer->file_size;
  const std::uint64_t content_seed =
      full_file ? true_seed
                : derive_partial_seed(true_seed, whole.offset, whole.length);
  if (transfer->pool != nullptr) {
    auto added = transfer->pool->add_file(
        transfer->local_path, whole.length, content_seed,
        stack_.simulator().now());
    if (!added.is_ok()) {
      complete(transfer, added.status());
      return;
    }
    transfer->pool->disk().write(whole.length, [] {});
  }
  succeed(transfer, true_seed, content_seed);
}

void FtpClient::finish_put_attempt(const std::shared_ptr<Transfer>& transfer,
                                   Status status,
                                   std::span<const std::uint8_t> reply) {
  if (!status.is_ok()) {
    retry_or_fail(transfer, transfer->requested, status);
    return;
  }
  rpc::Reader r(reply);
  if (r.u32() != transfer->source_crc) {
    retry_or_fail(transfer, transfer->requested,
                  make_error(ErrorCode::kCorrupted,
                             "remote CRC mismatch after STOR"));
    return;
  }
  succeed(transfer, transfer->source_seed, transfer->source_seed);
}

void FtpClient::retry_or_fail(const std::shared_ptr<Transfer>& transfer,
                              std::vector<ByteRange> ranges,
                              const Status& cause) {
  if (transfer->attempts >= transfer->options.max_attempts) {
    complete(transfer, cause);
    return;
  }
  GDMP_INFO("gridftp.client",
            "restarting transfer of ", transfer->remote_path, " (",
            ranges.size(), " ranges): ", cause.to_string());
  if (transfer->options.channel != nullptr &&
      transfer->options.channel->has_subscribers()) {
    obs::RestartMarker marker;
    marker.time = stack_.simulator().now();
    marker.peer = transfer->options.peer;
    marker.path = transfer->remote_path;
    marker.next_attempt = static_cast<std::uint32_t>(transfer->attempts + 1);
    marker.ranges_remaining = ranges.size();
    transfer->options.channel->restart(marker);
  }
  obs::Tracer::global().attr(transfer->span, "restarts",
                             static_cast<std::int64_t>(transfer->attempts));
  // Purge block records overlapping the ranges being re-fetched so stale
  // corrupted seeds do not poison the next attempt's majority vote (a put
  // keeps no block records).
  for (const ByteRange& range : ranges) {
    auto it = transfer->blocks.begin();
    while (it != transfer->blocks.end()) {
      const Bytes block_end = it->first + it->second.first;
      if (it->first < range.offset + range.length &&
          range.offset < block_end) {
        it = transfer->blocks.erase(it);
      } else {
        ++it;
      }
    }
  }
  transfer->attempt_ranges = std::move(ranges);
  start_attempt(transfer);
}

void FtpClient::succeed(const std::shared_ptr<Transfer>& transfer,
                        std::uint64_t source_seed,
                        std::uint64_t content_seed) {
  TransferResult result;
  result.bytes = transfer->requested.front().length;
  result.elapsed = stack_.simulator().now() - transfer->started_at;
  result.mbps = throughput_mbps(result.bytes, result.elapsed);
  result.crc = transfer->source_crc;
  result.content_seed = content_seed;
  result.source_seed = source_seed;
  result.attempts = transfer->attempts;
  result.streams = transfer->options.parallel_streams;
  result.retransmitted_segments = transfer->sum_retransmits();
  complete(transfer, std::move(result));
}

void FtpClient::complete(const std::shared_ptr<Transfer>& transfer,
                         Result<TransferResult> result) {
  if (transfer->finished) return;
  transfer->shut_down();  // queued callbacks no-op: finished is now set

  if (transfer->span.valid()) {
    auto& tracer = obs::Tracer::global();
    tracer.attr(transfer->span, "status",
                result.is_ok() ? "ok" : result.status().to_string());
    tracer.attr(transfer->span, "attempts",
                static_cast<std::int64_t>(transfer->attempts));
    tracer.end(transfer->span);
  }
  if (transfer->options.channel != nullptr &&
      transfer->options.channel->has_subscribers()) {
    obs::TransferSummary summary;
    summary.time = stack_.simulator().now();
    summary.peer = transfer->options.peer;
    summary.path = transfer->remote_path;
    summary.ok = result.is_ok();
    summary.streams =
        static_cast<std::uint32_t>(transfer->options.parallel_streams);
    summary.attempts = static_cast<std::uint32_t>(
        transfer->attempts > 0 ? transfer->attempts : 1);
    if (result.is_ok()) {
      summary.bytes = result->bytes;
      summary.elapsed = result->elapsed;
      summary.mbps = result->mbps;
    } else {
      summary.bytes = transfer->payload_bytes;
      summary.elapsed = stack_.simulator().now() - transfer->started_at;
      summary.mbps = throughput_mbps(summary.bytes, summary.elapsed);
    }
    transfer->options.channel->complete(summary);
  }
  if (transfer->done) transfer->done(std::move(result));
}

void FtpClient::third_party(net::NodeId source, net::Port source_port,
                            const std::string& path, net::NodeId dest,
                            net::Port dest_port, const std::string& dest_path,
                            const TransferOptions& options, Done done) {
  auto rpc = make_control_rpc(source, source_port, kTransferRpcTimeout);
  rpc::Writer w;
  w.str(path);
  w.u32(static_cast<std::uint32_t>(dest));
  w.u16(dest_port);
  w.str(dest_path);
  w.u32(static_cast<std::uint32_t>(options.parallel_streams));
  w.i64(options.tcp_buffer);
  const SimTime started = stack_.simulator().now();
  (*rpc)->call(kCmdTransferTo, w.take(),
               [this, alive = std::weak_ptr<bool>(alive_), rpc,
                done = std::move(done), started, options](
                   Status status, std::vector<std::uint8_t> reply) {
                 if (alive.expired()) {
                   done(make_error(ErrorCode::kAborted,
                                   "ftp client destroyed"));
                   return;
                 }
                 (*rpc)->close();
                 if (!status.is_ok()) {
                   done(status);
                   return;
                 }
                 rpc::Reader r(reply);
                 TransferResult result;
                 result.bytes = r.i64();
                 result.crc = r.u32();
                 result.elapsed = stack_.simulator().now() - started;
                 result.mbps = throughput_mbps(result.bytes, result.elapsed);
                 result.streams = options.parallel_streams;
                 done(std::move(result));
               });
}

void FtpClient::file_size(net::NodeId server, net::Port port,
                          const std::string& path,
                          std::function<void(Result<Bytes>)> done) {
  auto rpc = make_control_rpc(server, port, 60 * kSecond);
  rpc::Writer w;
  w.str(path);
  (*rpc)->call(kCmdSize, w.take(),
               [rpc, done = std::move(done)](Status status,
                                             std::vector<std::uint8_t> reply) {
                 if (*rpc) (*rpc)->close();  // null when teardown drains us
                 if (!status.is_ok()) {
                   done(status);
                   return;
                 }
                 rpc::Reader r(reply);
                 done(r.i64());
               });
}

void FtpClient::checksum(net::NodeId server, net::Port port,
                         const std::string& path,
                         std::function<void(Result<std::uint32_t>)> done) {
  auto rpc = make_control_rpc(server, port, 60 * kSecond);
  rpc::Writer w;
  w.str(path);
  (*rpc)->call(kCmdChecksum, w.take(),
               [rpc, done = std::move(done)](Status status,
                                             std::vector<std::uint8_t> reply) {
                 if (*rpc) (*rpc)->close();  // null when teardown drains us
                 if (!status.is_ok()) {
                   done(status);
                   return;
                 }
                 rpc::Reader r(reply);
                 done(r.u32());
               });
}

void FtpClient::remove_remote(net::NodeId server, net::Port port,
                              const std::string& path,
                              std::function<void(Status)> done) {
  auto rpc = make_control_rpc(server, port, 60 * kSecond);
  rpc::Writer w;
  w.str(path);
  (*rpc)->call(kCmdDelete, w.take(),
               [rpc, done = std::move(done)](Status status,
                                             std::vector<std::uint8_t>) {
                 if (*rpc) (*rpc)->close();  // null when teardown drains us
                 done(status);
               });
}

}  // namespace gdmp::gridftp
