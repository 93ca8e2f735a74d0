// Segment-level TCP Reno over the simulated network.
//
// This is the mechanism underneath every GDMP behaviour the paper measures:
//  * the congestion window (slow start + congestion avoidance, RFC 2581 era)
//  * the *socket buffer* cap — min(cwnd, peer window, send buffer) — which
//    produces the untuned-64KB curves of Figure 5,
//  * fast retransmit / fast recovery with NewReno partial-ack handling,
//  * retransmission timeout with Karn's rule and exponential backoff.
//
// The byte stream is a sequence of chunks that are either *real* bytes
// (control-plane messages) or *synthetic* byte counts (bulk file data);
// segments never straddle a real/synthetic boundary so receivers can
// reconstruct the stream exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/det_hash.h"
#include "common/result.h"
#include "common/types.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace gdmp::net {

struct TcpConfig {
  Bytes mss = 1460;
  /// Socket send buffer: caps unacknowledged data in flight. The paper's
  /// "default TCP buffers" are 64 KB; "tuned" is 1 MB (Figures 5 vs 6).
  Bytes send_buffer = 64 * kKiB;
  /// Socket receive buffer: advertised window ceiling.
  Bytes recv_buffer = 64 * kKiB;
  Bytes initial_cwnd_segments = 2;
  /// Linux 2.4-style RTO floor (the HEP platform of the day); RFC 2988's
  /// conservative 1 s floor makes window-synchronized loss episodes on a
  /// deterministic simulator far more punishing than reality.
  SimDuration min_rto = 200 * kMillisecond;
  SimDuration max_rto = 64 * kSecond;
  SimDuration initial_rto = 3 * kSecond;
  int max_retries = 8;  // per-segment RTO retries before the connection fails
};

struct TcpStats {
  Bytes bytes_queued = 0;      // application bytes accepted for sending
  Bytes bytes_acked = 0;       // application bytes cumulatively acknowledged
  Bytes bytes_delivered = 0;   // application bytes delivered in order
  std::int64_t segments_sent = 0;
  std::int64_t segments_received = 0;
  std::int64_t retransmits = 0;
  std::int64_t fast_retransmits = 0;
  std::int64_t timeouts = 0;
  SimDuration smoothed_rtt = 0;
  SimTime established_at = -1;
  SimTime closed_at = -1;
};

class TcpStack;

/// One endpoint of a TCP connection. Lifetime is managed by shared_ptr; the
/// stack holds a reference while the connection is demultiplexable.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using Ptr = std::shared_ptr<TcpConnection>;

  enum class State {
    kSynSent,
    kSynReceived,
    kEstablished,
    kClosing,  // our FIN queued or sent
    kClosed,
  };

  /// Fires once on the client side when the handshake completes (or fails).
  std::function<void(const Status&)> on_established;
  /// In-order delivery of real bytes.
  std::function<void(std::span<const std::uint8_t>)> on_data;
  /// In-order delivery of synthetic (counted-only) bytes.
  std::function<void(Bytes)> on_synthetic_data;
  /// Fires when every queued byte (and FIN, if closing) is acknowledged.
  std::function<void()> on_send_drained;
  /// Fires once when the connection terminates: OK after an orderly
  /// bidirectional close, an error on RST / retry exhaustion.
  std::function<void(const Status&)> on_closed;

  ~TcpConnection();

  /// Queues real bytes on the stream.
  void send(std::vector<std::uint8_t> data);
  /// Queues `n` synthetic bytes on the stream.
  void send_synthetic(Bytes n);
  /// Graceful close: FIN after all queued data. Further sends are invalid.
  void close();
  /// Immediate teardown with RST.
  void abort();

  State state() const noexcept { return state_; }
  bool established() const noexcept {
    return state_ == State::kEstablished || state_ == State::kClosing;
  }
  const TcpStats& stats() const noexcept { return stats_; }
  const TcpConfig& config() const noexcept { return config_; }
  Bytes congestion_window() const noexcept {
    return static_cast<Bytes>(cwnd_);
  }
  NodeId remote_node() const noexcept { return remote_node_; }
  Port remote_port() const noexcept { return remote_port_; }
  Port local_port() const noexcept { return local_port_; }

 private:
  friend class TcpStack;

  struct Chunk {
    std::shared_ptr<const std::vector<std::uint8_t>> real;  // null = synthetic
    Bytes length = 0;
  };

  TcpConnection(TcpStack& stack, TcpConfig config, NodeId remote_node,
                Port remote_port, Port local_port, bool is_client);

  /// Server side: invoked (by the stack) once the handshake completes.
  std::function<void(Ptr)> accept_handler_;

  void start_connect();
  void handle_packet(const Packet& packet);
  void process_ack(const Packet& packet);
  void process_sack(const Packet& packet);
  void enter_fast_recovery();
  void sack_retransmit_holes();
  void fill_sack(Packet& packet) const;
  void process_payload(const Packet& packet);
  void deliver_in_order();
  void try_send();
  void send_segment(std::int64_t seq, Bytes length, bool is_retransmit);
  void send_control(std::uint8_t flags, std::int64_t seq);
  void send_pure_ack();
  void retransmit_head();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void sample_rtt(SimDuration rtt);
  void maybe_send_fin();
  void maybe_finish_close();
  void fail(Status status);
  void enter_closed(Status status);

  Bytes usable_window() const noexcept;
  Bytes in_flight() const noexcept {
    return static_cast<Bytes>(snd_nxt_ - snd_una_);
  }
  Bytes advertised_window() const noexcept;

  TcpStack& stack_;
  TcpConfig config_;
  NodeId remote_node_;
  Port remote_port_;
  Port local_port_;
  bool is_client_;
  State state_;

  // ---- Send side. App stream offsets: byte i lives at sequence i + 1
  // (SYN consumes sequence 0; FIN consumes stream_length + 1).
  std::map<std::int64_t, Chunk> chunks_;  // keyed by app stream offset
  std::int64_t stream_length_ = 0;        // total app bytes queued
  std::int64_t snd_una_ = 0;              // oldest unacked sequence
  std::int64_t snd_nxt_ = 0;              // next sequence to send
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  double cwnd_ = 0;
  double ssthresh_ = 0;
  Bytes peer_window_ = 0;
  int dup_acks_ = 0;
  bool in_fast_recovery_ = false;
  std::int64_t recover_ = 0;  // highest seq sent when recovery began

  // SACK scoreboard (RFC 2018/3517): disjoint [begin, end) sequence ranges
  // the peer holds above snd_una_.
  std::map<std::int64_t, std::int64_t> sacked_;
  Bytes sacked_bytes_ = 0;
  std::int64_t recovery_retx_next_ = 0;  // next hole to retransmit
  Bytes retx_inflight_ = 0;  // recovery retransmissions still in the pipe
  int rto_retries_ = 0;
  SimDuration rto_;
  sim::EventHandle rto_timer_;
  bool send_scheduled_ = false;

  // RTT estimation (Karn + Jacobson).
  bool rtt_timing_active_ = false;
  std::int64_t rtt_timed_seq_ = 0;
  SimTime rtt_timed_sent_at_ = 0;
  SimDuration srtt_ = 0;
  SimDuration rttvar_ = 0;
  bool rtt_valid_ = false;

  // ---- Receive side.
  std::int64_t rcv_nxt_ = 0;
  struct OooSegment {
    Bytes length;
    std::shared_ptr<const std::vector<std::uint8_t>> data;  // null = synthetic
    bool fin;
  };
  std::map<std::int64_t, OooSegment> out_of_order_;
  Bytes out_of_order_bytes_ = 0;
  bool fin_received_ = false;
  std::int64_t fin_seq_ = -1;

  TcpStats stats_;
};

/// Per-node TCP endpoint table: listeners and active connections.
class TcpStack {
 public:
  using AcceptHandler = std::function<void(TcpConnection::Ptr)>;

  TcpStack(sim::Simulator& simulator, Node& node);

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Opens a client connection; `on_established` fires when the handshake
  /// completes. The returned connection is immediately usable for send()
  /// (data flows once established).
  TcpConnection::Ptr connect(NodeId remote_node, Port remote_port,
                             const TcpConfig& config);

  /// Listens on a port. Accepted connections use `config`.
  Status listen(Port port, const TcpConfig& config, AcceptHandler handler);
  void close_listener(Port port);

  /// Allocates an ephemeral port (49152+).
  Port allocate_port() noexcept;

  sim::Simulator& simulator() noexcept { return simulator_; }
  Node& node() noexcept { return node_; }

  std::size_t connection_count() const noexcept { return connections_.size(); }

  /// Stack-wide sums of every connection's segment, retransmit, timeout and
  /// delivered-byte counts; each connection bumps them next to its own
  /// stats(). The other TcpStats fields keep their defaults.
  const TcpStats& totals() const noexcept { return totals_; }
  /// Connections opened with connect() (accepted ones are not counted).
  std::int64_t connections_opened() const noexcept {
    return connections_opened_;
  }

  /// Exposes connections_opened() and the totals() counts under `scope`
  /// (e.g. "site.cern.net.tcp").
  void set_metrics(const obs::MetricsScope& scope);

 private:
  friend class TcpConnection;

  struct ConnKey {
    Port local_port;
    NodeId remote_node;
    Port remote_port;
    friend bool operator==(const ConnKey&, const ConnKey&) = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.local_port) << 48) ^
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               k.remote_node))
           << 16) ^
          k.remote_port);
    }
  };
  struct Listener {
    TcpConfig config;
    AcceptHandler handler;
  };

  void handle_packet(const Packet& packet);
  void send_rst(const Packet& cause);
  void detach(TcpConnection& conn);

  sim::Simulator& simulator_;
  Node& node_;
  common::UnorderedMap<Port, Listener> listeners_;                        // lookup-only
  common::UnorderedMap<ConnKey, TcpConnection::Ptr, ConnKeyHash> connections_;  // lookup-only
  Port next_ephemeral_ = 49152;
  TcpStats totals_;
  std::int64_t connections_opened_ = 0;
  /// Liveness sentinel: the node's protocol handler can fire for packets
  /// already in flight after the stack is destroyed.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::net
