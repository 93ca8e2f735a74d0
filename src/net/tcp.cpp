#include "net/tcp.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace gdmp::net {
namespace {

constexpr double kSsthreshUnbounded = 1e15;

}  // namespace

// ---------------------------------------------------------------- connection

TcpConnection::TcpConnection(TcpStack& stack, TcpConfig config,
                             NodeId remote_node, Port remote_port,
                             Port local_port, bool is_client)
    : stack_(stack),
      config_(config),
      remote_node_(remote_node),
      remote_port_(remote_port),
      local_port_(local_port),
      is_client_(is_client),
      state_(is_client ? State::kSynSent : State::kSynReceived),
      cwnd_(static_cast<double>(config.initial_cwnd_segments * config.mss)),
      ssthresh_(kSsthreshUnbounded),
      peer_window_(config.mss),  // until the peer advertises
      rto_(config.initial_rto) {
  snd_una_ = 0;
  snd_nxt_ = 1;  // SYN consumes sequence 0
  rcv_nxt_ = 0;
}

TcpConnection::~TcpConnection() { cancel_rto(); }

void TcpConnection::start_connect() {
  send_control(kFlagSyn, 0);
  arm_rto();
}

void TcpConnection::send(std::vector<std::uint8_t> data) {
  if (data.empty()) return;
  assert(!fin_queued_ && "send() after close()");
  if (state_ == State::kClosed) return;
  Chunk chunk;
  chunk.length = static_cast<Bytes>(data.size());
  chunk.real =
      // gdmp-lint: hot-alloc — payload bytes are shared, not copied, across retransmits
      std::make_shared<const std::vector<std::uint8_t>>(std::move(data));
  // gdmp-lint: hot-alloc — send queue is node-based, one node per app write
  chunks_.emplace(stream_length_, std::move(chunk));
  stream_length_ += chunk.length;
  stats_.bytes_queued += chunk.length;
  try_send();
}

void TcpConnection::send_synthetic(Bytes n) {
  if (n <= 0) return;
  assert(!fin_queued_ && "send_synthetic() after close()");
  if (state_ == State::kClosed) return;
  // Merge with a trailing synthetic chunk so bulk writes stay O(1).
  if (!chunks_.empty()) {
    auto& [offset, last] = *chunks_.rbegin();
    if (!last.real && offset + last.length == stream_length_) {
      last.length += n;
      stream_length_ += n;
      stats_.bytes_queued += n;
      try_send();
      return;
    }
  }
  // gdmp-lint: hot-alloc — synthetic chunks carry no payload; one node per app write
  chunks_.emplace(stream_length_, Chunk{nullptr, n});
  stream_length_ += n;
  stats_.bytes_queued += n;
  try_send();
}

void TcpConnection::close() {
  if (state_ == State::kClosed || fin_queued_) return;
  fin_queued_ = true;
  if (state_ == State::kEstablished) state_ = State::kClosing;
  maybe_send_fin();
  maybe_finish_close();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  send_control(kFlagRst, snd_nxt_);
  enter_closed(make_error(ErrorCode::kAborted, "connection aborted locally"));
}

void TcpConnection::handle_packet(const Packet& packet) {
  if (state_ == State::kClosed) return;
  ++stats_.segments_received;
  ++stack_.totals_.segments_received;

  if (packet.has_flag(kFlagRst)) {
    fail(make_error(ErrorCode::kAborted, "connection reset by peer"));
    return;
  }

  if (state_ == State::kSynSent) {
    if (packet.has_flag(kFlagSyn) && packet.has_flag(kFlagAck) &&
        packet.ack >= 1) {
      snd_una_ = 1;
      rcv_nxt_ = 1;
      peer_window_ = packet.advertised_window;
      state_ = State::kEstablished;
      stats_.established_at = stack_.simulator().now();
      rto_retries_ = 0;
      rto_ = config_.initial_rto;
      cancel_rto();
      send_pure_ack();
      if (on_established) on_established(Status::ok());
      try_send();
    }
    return;
  }

  if (state_ == State::kSynReceived) {
    if (packet.has_flag(kFlagAck) && packet.ack >= 1) {
      snd_una_ = std::max<std::int64_t>(snd_una_, 1);
      state_ = State::kEstablished;
      stats_.established_at = stack_.simulator().now();
      rto_retries_ = 0;
      rto_ = config_.initial_rto;
      cancel_rto();
      peer_window_ = packet.advertised_window;
      if (accept_handler_) {
        auto handler = std::move(accept_handler_);
        accept_handler_ = nullptr;
        handler(shared_from_this());
      }
      // Fall through: the handshake ACK may carry data.
    } else if (packet.has_flag(kFlagSyn) && !packet.has_flag(kFlagAck)) {
      send_control(kFlagSyn | kFlagAck, 0);  // duplicate SYN: re-answer
      return;
    } else {
      return;
    }
  }

  process_ack(packet);
  if (state_ == State::kClosed) return;
  process_payload(packet);
}

void TcpConnection::process_ack(const Packet& packet) {
  if (!packet.has_flag(kFlagAck)) return;
  peer_window_ = packet.advertised_window;
  const double mss = static_cast<double>(config_.mss);
  process_sack(packet);

  if (packet.ack > snd_una_) {
    const std::int64_t newly = packet.ack - snd_una_;
    snd_una_ = packet.ack;
    // A late ACK can overtake a timeout-rewound snd_nxt_ (the original
    // transmission got through after all); never send below snd_una_.
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    if (fin_sent_ && snd_nxt_ <= stream_length_ + 1) fin_sent_ = false;
    stats_.bytes_acked = std::min<std::int64_t>(
        std::max<std::int64_t>(snd_una_ - 1, 0), stream_length_);

    // Trim fully acknowledged chunks (app offset = sequence - 1).
    const std::int64_t acked_app = stats_.bytes_acked;
    while (!chunks_.empty()) {
      const auto it = chunks_.begin();
      if (it->first + it->second.length > acked_app) break;
      chunks_.erase(it);
    }

    if (rtt_timing_active_ && snd_una_ > rtt_timed_seq_) {
      sample_rtt(stack_.simulator().now() - rtt_timed_sent_at_);
      rtt_timing_active_ = false;
    }
    rto_retries_ = 0;

    if (fin_sent_ && snd_una_ >= stream_length_ + 2) fin_acked_ = true;

    // Trim the SACK scoreboard below the new cumulative ack.
    while (!sacked_.empty()) {
      auto it = sacked_.begin();
      if (it->second <= snd_una_) {
        sacked_bytes_ -= it->second - it->first;
        sacked_.erase(it);
      } else if (it->first < snd_una_) {
        sacked_bytes_ -= snd_una_ - it->first;
        const auto end = it->second;
        sacked_.erase(it);
        sacked_.emplace(snd_una_, end);
      } else {
        break;
      }
    }
    retx_inflight_ = std::max<Bytes>(0, retx_inflight_ - newly);

    if (in_fast_recovery_) {
      if (snd_una_ >= recover_) {
        cwnd_ = ssthresh_;
        in_fast_recovery_ = false;
        dup_acks_ = 0;
        retx_inflight_ = 0;
        GDMP_TRACE("tcp", "port ", local_port_, " exit recovery: una=",
                   snd_una_, " cwnd=", static_cast<Bytes>(cwnd_));
      } else {
        // Partial ack: stay in recovery; the SACK loop keeps the pipe full.
        recovery_retx_next_ = std::max(recovery_retx_next_, snd_una_);
        sack_retransmit_holes();
      }
    } else {
      dup_acks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += mss;  // slow start
      } else {
        cwnd_ += mss * mss / cwnd_;  // congestion avoidance
      }
    }

    if (in_flight() > 0) {
      arm_rto();
    } else {
      cancel_rto();
    }

    const bool drained =
        stats_.bytes_acked >= stream_length_ && (!fin_queued_ || fin_acked_);
    maybe_send_fin();
    try_send();
    if (drained && on_send_drained) on_send_drained();
    maybe_finish_close();
    return;
  }

  // Duplicate ACK: same cumulative ack, no payload, data outstanding.
  if (packet.ack == snd_una_ && in_flight() > 0 && packet.payload_len == 0 &&
      !packet.has_flag(kFlagSyn) && !packet.has_flag(kFlagFin)) {
    ++dup_acks_;
    if (in_fast_recovery_) {
      sack_retransmit_holes();  // each dupack drains the pipe a little
    } else if (snd_una_ > recover_ &&
               (dup_acks_ >= 3 ||
                sacked_bytes_ > 3 * config_.mss)) {  // RFC 3517 entry
      // The snd_una_ > recover_ guard (RFC 6582) stops stale dupacks from
      // an earlier loss episode (or a timeout rewind) from halving the
      // window again and re-entering recovery with bogus state.
      enter_fast_recovery();
    }
  }
}

void TcpConnection::process_sack(const Packet& packet) {
  for (std::uint8_t i = 0; i < packet.sack_count; ++i) {
    std::int64_t begin = std::max(packet.sack[i].first, snd_una_);
    std::int64_t end = std::min(packet.sack[i].second, snd_nxt_);
    if (begin >= end) continue;
    // Merge [begin, end) into the scoreboard.
    auto it = sacked_.lower_bound(begin);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= begin) it = prev;
    }
    while (it != sacked_.end() && it->first <= end) {
      begin = std::min(begin, it->first);
      end = std::max(end, it->second);
      sacked_bytes_ -= it->second - it->first;
      it = sacked_.erase(it);
    }
    sacked_.emplace(begin, end);
    sacked_bytes_ += end - begin;
  }
}

void TcpConnection::enter_fast_recovery() {
  const double mss = static_cast<double>(config_.mss);
  ssthresh_ = std::max(static_cast<double>(in_flight()) / 2.0, 2.0 * mss);
  cwnd_ = ssthresh_;
  recover_ = snd_nxt_;
  recovery_retx_next_ = snd_una_;
  retx_inflight_ = 0;
  in_fast_recovery_ = true;
  ++stats_.fast_retransmits;
  ++stack_.totals_.fast_retransmits;
  GDMP_TRACE("tcp", "port ", local_port_, " enter recovery: una=", snd_una_,
             " nxt=", snd_nxt_, " cwnd=", static_cast<Bytes>(cwnd_),
             " sacked=", sacked_bytes_);
  if (sacked_.empty()) retransmit_head();  // classic 3-dupack entry
  sack_retransmit_holes();
}

void TcpConnection::sack_retransmit_holes() {
  // RFC 3517-style pipe control: keep cwnd worth of data in flight,
  // preferring retransmission of the lowest unsacked hole. Unsacked bytes
  // below the highest SACKed sequence are treated as lost, so
  //   pipe = (snd_nxt - highest_sacked) + recovery retransmissions.
  while (in_fast_recovery_) {
    const std::int64_t highest_sacked =
        sacked_.empty() ? snd_una_ : sacked_.rbegin()->second;
    const Bytes pipe =
        std::max<Bytes>(0, snd_nxt_ - highest_sacked) + retx_inflight_;
    if (pipe >= static_cast<Bytes>(cwnd_)) break;

    // Locate the next hole at/after recovery_retx_next_, below recover_.
    std::int64_t hole = std::max(recovery_retx_next_, snd_una_);
    std::int64_t limit = recover_;
    for (const auto& [begin, end] : sacked_) {
      if (end <= hole) continue;
      if (begin <= hole) {
        hole = end;  // inside a sacked range; skip past it
        continue;
      }
      limit = std::min(limit, begin);
      break;
    }
    if (hole < limit && hole < recover_) {
      const std::int64_t app_off = hole - 1;
      if (app_off >= stream_length_) {
        // The hole is the FIN; let the RTO path handle it.
        break;
      }
      auto it = chunks_.upper_bound(app_off);
      if (it == chunks_.begin()) break;
      --it;
      const Bytes chunk_remaining = it->first + it->second.length - app_off;
      const Bytes length = std::min(
          {config_.mss, limit - hole, chunk_remaining,
           static_cast<Bytes>(stream_length_ - app_off)});
      if (length <= 0) break;
      send_segment(hole, length, /*is_retransmit=*/true);
      recovery_retx_next_ = hole + length;
      retx_inflight_ += length;
      continue;
    }
    // Every known hole retransmitted once: extend with new data if any
    // (still bounded by the peer window and our send buffer).
    if (in_flight() >= std::min(peer_window_, config_.send_buffer)) break;
    const std::int64_t next_app = snd_nxt_ - 1;
    if (next_app >= stream_length_) break;
    auto it = chunks_.upper_bound(next_app);
    if (it == chunks_.begin()) break;
    --it;
    const Bytes chunk_remaining = it->first + it->second.length - next_app;
    const Bytes length = std::min(
        {config_.mss, stream_length_ - next_app, chunk_remaining});
    if (length <= 0) break;
    send_segment(snd_nxt_, length, /*is_retransmit=*/false);
  }
}

void TcpConnection::process_payload(const Packet& packet) {
  if (packet.has_flag(kFlagSyn)) return;
  const bool fin = packet.has_flag(kFlagFin);
  if (packet.payload_len == 0 && !fin) return;  // pure ACK

  const std::int64_t seg_end = packet.seq + packet.payload_len + (fin ? 1 : 0);
  if (seg_end <= rcv_nxt_) {
    send_pure_ack();  // stale duplicate
    return;
  }
  if (packet.seq > rcv_nxt_) {
    // Out-of-order: buffer within the receive window, then dup-ack.
    const Bytes needed = (packet.seq - rcv_nxt_) + packet.payload_len;
    if (needed <= config_.recv_buffer &&
        !out_of_order_.contains(packet.seq)) {
      out_of_order_.emplace(
          packet.seq, OooSegment{packet.payload_len, packet.data, fin});
      out_of_order_bytes_ += packet.payload_len;
    }
    send_pure_ack();
    return;
  }

  // In-order (possibly partially duplicate) segment.
  const std::int64_t skip = rcv_nxt_ - packet.seq;
  const Bytes fresh = packet.payload_len - skip;
  if (fresh > 0) {
    stats_.bytes_delivered += fresh;
    stack_.totals_.bytes_delivered += fresh;
    if (packet.data) {
      if (on_data) {
        on_data(std::span<const std::uint8_t>(packet.data->data() + skip,
                                              static_cast<std::size_t>(fresh)));
      }
    } else if (on_synthetic_data) {
      on_synthetic_data(fresh);
    }
    rcv_nxt_ = packet.seq + packet.payload_len;
  }
  if (fin) {
    fin_received_ = true;
    fin_seq_ = packet.seq + packet.payload_len;
    rcv_nxt_ = fin_seq_ + 1;
  }
  deliver_in_order();
  send_pure_ack();
  maybe_finish_close();
}

void TcpConnection::deliver_in_order() {
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    const std::int64_t seq = it->first;
    if (seq > rcv_nxt_) break;
    OooSegment seg = std::move(it->second);
    out_of_order_.erase(it);
    out_of_order_bytes_ -= seg.length;
    const std::int64_t seg_end = seq + seg.length;
    if (seg_end > rcv_nxt_ || (seg.fin && !fin_received_)) {
      const std::int64_t skip = rcv_nxt_ - seq;
      const Bytes fresh = seg.length - skip;
      if (fresh > 0) {
        stats_.bytes_delivered += fresh;
        stack_.totals_.bytes_delivered += fresh;
        if (seg.data) {
          if (on_data) {
            on_data(std::span<const std::uint8_t>(
                seg.data->data() + skip, static_cast<std::size_t>(fresh)));
          }
        } else if (on_synthetic_data) {
          on_synthetic_data(fresh);
        }
        rcv_nxt_ = seg_end;
      }
      if (seg.fin) {
        fin_received_ = true;
        fin_seq_ = seg_end;
        rcv_nxt_ = seg_end + 1;
      }
    }
  }
}

Bytes TcpConnection::usable_window() const noexcept {
  const Bytes cwnd = static_cast<Bytes>(cwnd_);
  return std::min({cwnd, peer_window_, config_.send_buffer});
}

Bytes TcpConnection::advertised_window() const noexcept {
  const Bytes free_space = config_.recv_buffer - out_of_order_bytes_;
  return free_space > 0 ? free_space : 0;
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kClosing) return;
  while (true) {
    const Bytes avail = usable_window() - in_flight();
    if (avail <= 0) break;
    const std::int64_t next_app = snd_nxt_ - 1;
    if (next_app >= stream_length_) break;

    // Locate the chunk containing next_app so the segment does not straddle
    // a real/synthetic boundary.
    auto it = chunks_.upper_bound(next_app);
    assert(it != chunks_.begin());
    --it;
    const std::int64_t chunk_remaining = it->first + it->second.length - next_app;
    const Bytes length =
        std::min({config_.mss, stream_length_ - next_app, avail,
                  static_cast<Bytes>(chunk_remaining)});
    assert(length > 0);
    send_segment(snd_nxt_, length, /*is_retransmit=*/false);
  }
  maybe_send_fin();
}

void TcpConnection::send_segment(std::int64_t seq, Bytes length,
                                 bool is_retransmit) {
  Packet packet;
  packet.src = stack_.node().id();
  packet.dst = remote_node_;
  packet.src_port = local_port_;
  packet.dst_port = remote_port_;
  packet.flags = kFlagAck;
  packet.seq = seq;
  packet.ack = rcv_nxt_;
  packet.payload_len = length;
  packet.advertised_window = advertised_window();
  fill_sack(packet);

  const std::int64_t app_off = seq - 1;
  auto it = chunks_.upper_bound(app_off);
  assert(it != chunks_.begin());
  --it;
  const Chunk& chunk = it->second;
  assert(app_off >= it->first &&
         app_off + length <= it->first + chunk.length);
  if (chunk.real) {
    const auto begin = static_cast<std::size_t>(app_off - it->first);
    // gdmp-lint: hot-alloc — real-payload slices are copied by design; synthetic payloads stay zero-copy
    packet.data = std::make_shared<const std::vector<std::uint8_t>>(
        chunk.real->begin() + begin, chunk.real->begin() + begin + length);
  }

  ++stats_.segments_sent;
  ++stack_.totals_.segments_sent;
  if (is_retransmit) {
    ++stats_.retransmits;
    ++stack_.totals_.retransmits;
  }

  if (!is_retransmit && !rtt_timing_active_) {
    rtt_timing_active_ = true;
    rtt_timed_seq_ = seq;
    rtt_timed_sent_at_ = stack_.simulator().now();
  }
  stack_.node().send(packet);
  snd_nxt_ = std::max(snd_nxt_, seq + length);
  arm_rto();
}

void TcpConnection::send_control(std::uint8_t flags, std::int64_t seq) {
  Packet packet;
  packet.src = stack_.node().id();
  packet.dst = remote_node_;
  packet.src_port = local_port_;
  packet.dst_port = remote_port_;
  packet.flags = flags;
  packet.seq = seq;
  packet.ack = rcv_nxt_;
  packet.advertised_window = advertised_window();
  if ((flags & kFlagSyn) != 0 || state_ == State::kEstablished ||
      state_ == State::kClosing) {
    if ((flags & kFlagSyn) == 0) packet.flags |= kFlagAck;
  }
  ++stats_.segments_sent;
  ++stack_.totals_.segments_sent;
  stack_.node().send(packet);
}

void TcpConnection::send_pure_ack() {
  Packet packet;
  packet.src = stack_.node().id();
  packet.dst = remote_node_;
  packet.src_port = local_port_;
  packet.dst_port = remote_port_;
  packet.flags = kFlagAck;
  packet.seq = snd_nxt_;
  packet.ack = rcv_nxt_;
  packet.advertised_window = advertised_window();
  fill_sack(packet);
  stack_.node().send(packet);
}

void TcpConnection::fill_sack(Packet& packet) const {
  // Report up to 4 coalesced ranges from the out-of-order buffer.
  packet.sack_count = 0;
  std::int64_t run_begin = 0;
  std::int64_t run_end = -1;
  for (const auto& [seq, segment] : out_of_order_) {
    const std::int64_t seg_end = seq + segment.length + (segment.fin ? 1 : 0);
    if (run_end < 0) {
      run_begin = seq;
      run_end = seg_end;
      continue;
    }
    if (seq <= run_end) {
      run_end = std::max(run_end, seg_end);
      continue;
    }
    packet.sack[packet.sack_count++] = {run_begin, run_end};
    if (packet.sack_count == packet.sack.size()) return;
    run_begin = seq;
    run_end = seg_end;
  }
  if (run_end > 0 && packet.sack_count < packet.sack.size()) {
    packet.sack[packet.sack_count++] = {run_begin, run_end};
  }
}

void TcpConnection::maybe_send_fin() {
  if (!fin_queued_ || fin_sent_) return;
  if (snd_nxt_ != stream_length_ + 1) return;  // data still unsent
  send_control(kFlagFin | kFlagAck, stream_length_ + 1);
  fin_sent_ = true;
  snd_nxt_ = stream_length_ + 2;
  arm_rto();
}

void TcpConnection::retransmit_head() {
  if (state_ == State::kSynSent) {
    send_control(kFlagSyn, 0);
    return;
  }
  if (state_ == State::kSynReceived) {
    send_control(kFlagSyn | kFlagAck, 0);
    return;
  }
  const std::int64_t app_off = snd_una_ - 1;
  if (app_off < stream_length_) {
    auto it = chunks_.upper_bound(app_off);
    if (it == chunks_.begin()) return;  // nothing retained (already acked)
    --it;
    const std::int64_t chunk_remaining =
        it->first + it->second.length - app_off;
    const Bytes length =
        std::min({config_.mss, stream_length_ - app_off,
                  static_cast<Bytes>(chunk_remaining)});
    send_segment(snd_una_, length, /*is_retransmit=*/true);
  } else if (fin_sent_ && !fin_acked_) {
    send_control(kFlagFin | kFlagAck, stream_length_ + 1);
    ++stats_.retransmits;
    ++stack_.totals_.retransmits;
    arm_rto();
  }
}

void TcpConnection::arm_rto() {
  // Fast path: every ack re-arms the RTO. reschedule() re-keys the pending
  // event in place — the closure and its weak guard persist across re-arms
  // (and across fires, when on_rto re-arms from inside the callback), so the
  // dominant schedule-RTO/cancel-on-ack churn costs one heap sift and no
  // allocations.
  if (stack_.simulator().reschedule(rto_timer_, rto_)) return;
  std::weak_ptr<TcpConnection> weak = weak_from_this();
  rto_timer_ = stack_.simulator().schedule(rto_, [weak] {
    if (auto self = weak.lock()) self->on_rto();
  });
}

void TcpConnection::cancel_rto() {
  stack_.simulator().cancel(rto_timer_);
  rto_timer_ = sim::EventHandle();
}

void TcpConnection::on_rto() {
  if (state_ == State::kClosed) return;
  ++rto_retries_;
  ++stats_.timeouts;
  ++stack_.totals_.timeouts;
  if (rto_retries_ > config_.max_retries) {
    fail(make_error(ErrorCode::kTimedOut,
                    "retransmission retries exhausted to node " +
                        std::to_string(remote_node_)));
    return;
  }
  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    rto_ = std::min(rto_ * 2, config_.max_rto);
    retransmit_head();
    arm_rto();
    return;
  }
  GDMP_TRACE("tcp", "port ", local_port_, " RTO: una=", snd_una_,
             " nxt=", snd_nxt_, " inflight=", in_flight(),
             " recovery=", in_fast_recovery_ ? 1 : 0,
             " retx_inflight=", retx_inflight_, " sacked=", sacked_bytes_);
  const double mss = static_cast<double>(config_.mss);
  ssthresh_ = std::max(static_cast<double>(in_flight()) / 2.0, 2.0 * mss);
  cwnd_ = mss;
  in_fast_recovery_ = false;
  dup_acks_ = 0;
  sacked_.clear();  // RFC 2018 §8: SACK info is advisory after an RTO
  sacked_bytes_ = 0;
  retx_inflight_ = 0;
  rtt_timing_active_ = false;  // Karn: do not time retransmissions
  // Remember the pre-rewind high water mark: dupacks below it must not
  // trigger another recovery episode (RFC 6582).
  recover_ = snd_nxt_;
  // Go-back-N: rewind and let slow start re-send the window.
  snd_nxt_ = snd_una_;
  if (snd_nxt_ <= stream_length_ + 1) fin_sent_ = false;
  rto_ = std::min(rto_ * 2, config_.max_rto);
  retransmit_head();
  arm_rto();
}

void TcpConnection::sample_rtt(SimDuration rtt) {
  if (!rtt_valid_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    rtt_valid_ = true;
  } else {
    const SimDuration err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }
  stats_.smoothed_rtt = srtt_;
  const SimDuration var_term = std::max<SimDuration>(4 * rttvar_, 10 * kMillisecond);
  rto_ = std::clamp(srtt_ + var_term, config_.min_rto, config_.max_rto);
}

void TcpConnection::maybe_finish_close() {
  if (fin_received_ && fin_queued_ && fin_acked_ &&
      state_ != State::kClosed) {
    enter_closed(Status::ok());
  }
}

void TcpConnection::fail(Status status) {
  if (state_ == State::kSynSent) {
    cancel_rto();
    state_ = State::kClosed;
    stats_.closed_at = stack_.simulator().now();
    stack_.detach(*this);
    if (on_established) on_established(status);
    return;
  }
  enter_closed(std::move(status));
}

void TcpConnection::enter_closed(Status status) {
  if (state_ == State::kClosed) return;
  cancel_rto();
  state_ = State::kClosed;
  stats_.closed_at = stack_.simulator().now();
  stack_.detach(*this);
  if (on_closed) on_closed(status);
}

// --------------------------------------------------------------------- stack

TcpStack::TcpStack(sim::Simulator& simulator, Node& node)
    : simulator_(simulator), node_(node) {
  node_.set_protocol_handler(
      Protocol::kTcp,
      [this, alive = std::weak_ptr<bool>(alive_)](const Packet& p) {
        if (alive.expired()) return;
        handle_packet(p);
      });
}

TcpConnection::Ptr TcpStack::connect(NodeId remote_node, Port remote_port,
                                     const TcpConfig& config) {
  const Port local_port = allocate_port();
  // gdmp-lint: owned-new (private ctor forces Ptr ownership; no make_shared)
  auto conn = TcpConnection::Ptr(new TcpConnection(
      *this, config, remote_node, remote_port, local_port, /*is_client=*/true));
  connections_.emplace(ConnKey{local_port, remote_node, remote_port}, conn);
  ++connections_opened_;
  conn->start_connect();
  return conn;
}

void TcpStack::set_metrics(const obs::MetricsScope& scope) {
  scope.expose("connections_opened", &connections_opened_);
  scope.expose("segments_sent", &totals_.segments_sent);
  scope.expose("segments_received", &totals_.segments_received);
  scope.expose("retransmits", &totals_.retransmits);
  scope.expose("fast_retransmits", &totals_.fast_retransmits);
  scope.expose("timeouts", &totals_.timeouts);
  scope.expose("bytes_delivered", &totals_.bytes_delivered);
}

Status TcpStack::listen(Port port, const TcpConfig& config,
                        AcceptHandler handler) {
  if (listeners_.contains(port)) {
    return make_error(ErrorCode::kAlreadyExists,
                      "port already listening: " + std::to_string(port));
  }
  // gdmp-lint: hot-alloc — listener table is set up once per service port
  listeners_.emplace(port, Listener{config, std::move(handler)});
  return Status::ok();
}

void TcpStack::close_listener(Port port) { listeners_.erase(port); }

Port TcpStack::allocate_port() noexcept {
  // Ephemeral range with wraparound; collisions are impossible in practice
  // for our workloads (ports recycle after ~16k connections).
  const Port port = next_ephemeral_++;
  if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
  return port;
}

void TcpStack::handle_packet(const Packet& packet) {
  const ConnKey key{packet.dst_port, packet.src, packet.src_port};
  if (const auto it = connections_.find(key); it != connections_.end()) {
    // Keep the connection alive through the callback even if it detaches.
    const TcpConnection::Ptr conn = it->second;
    conn->handle_packet(packet);
    return;
  }
  if (packet.has_flag(kFlagSyn) && !packet.has_flag(kFlagAck)) {
    const auto lit = listeners_.find(packet.dst_port);
    if (lit != listeners_.end()) {
      // gdmp-lint: owned-new (private ctor; owned by the accept-side Ptr)
      auto conn = TcpConnection::Ptr(new TcpConnection(
          *this, lit->second.config, packet.src, packet.src_port,
          packet.dst_port, /*is_client=*/false));
      conn->accept_handler_ = lit->second.handler;
      conn->rcv_nxt_ = 1;  // peer SYN consumed sequence 0
      conn->peer_window_ = packet.advertised_window;
      connections_.emplace(key, conn);
      conn->send_control(kFlagSyn | kFlagAck, 0);
      conn->arm_rto();
      return;
    }
  }
  if (!packet.has_flag(kFlagRst)) send_rst(packet);
}

void TcpStack::send_rst(const Packet& cause) {
  Packet rst;
  rst.src = node_.id();
  rst.dst = cause.src;
  rst.src_port = cause.dst_port;
  rst.dst_port = cause.src_port;
  rst.flags = kFlagRst;
  rst.seq = cause.ack;
  node_.send(rst);
}

void TcpStack::detach(TcpConnection& conn) {
  connections_.erase(
      ConnKey{conn.local_port(), conn.remote_node(), conn.remote_port()});
}

}  // namespace gdmp::net
