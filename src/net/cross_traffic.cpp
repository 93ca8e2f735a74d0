#include "net/cross_traffic.h"

namespace gdmp::net {
namespace {

constexpr Bytes kPacketSize = 1000;
/// Inter-packet gap jitter: each gap is uniform in [1-j, 1+j] × the mean.
constexpr double kJitter = 0.3;

}  // namespace

CbrSource::CbrSource(Network& network, Node& src, Node& dst, CbrConfig config,
                     std::uint64_t seed)
    : network_(network),
      src_(src),
      dst_(dst.id()),
      config_(config),
      rng_(seed) {}

CbrSource::~CbrSource() { stop(); }

void CbrSource::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void CbrSource::stop() {
  if (!running_) return;
  running_ = false;
  network_.simulator().cancel(pending_);
  pending_ = sim::EventHandle();
}

void CbrSource::arm() {
  const double mean_gap_s =
      static_cast<double>(kPacketSize) * 8.0 / config_.rate;
  const double gap_s =
      mean_gap_s * rng_.uniform(1.0 - kJitter, 1.0 + kJitter);
  // Steady state: arm() runs inside the previous shot's callback, so
  // reschedule() re-arms the same event slot — one persistent closure for
  // the whole packet train.
  const SimDuration gap = from_seconds(gap_s);
  if (network_.simulator().reschedule(pending_, gap)) return;
  std::weak_ptr<bool> alive = alive_;
  pending_ = network_.simulator().schedule(gap, [this, alive] {
    if (alive.expired() || !running_) return;
    Packet packet;
    packet.src = src_.id();
    packet.dst = dst_;
    packet.dst_port = config_.port;
    packet.protocol = Protocol::kDatagram;
    packet.payload_len = kPacketSize - Packet::kHeaderBytes;
    bytes_offered_ += kPacketSize;
    src_.send(packet);
    arm();
  });
}

DatagramSink::DatagramSink(Node& node) {
  node.set_protocol_handler(
      Protocol::kDatagram,
      [this, alive = std::weak_ptr<bool>(alive_)](const Packet& p) {
        if (alive.expired()) return;
        bytes_received_ += p.wire_size();
      });
}

}  // namespace gdmp::net
