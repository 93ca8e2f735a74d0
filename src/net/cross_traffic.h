// Background traffic sources.
//
// The paper's GridFTP numbers were taken on the *production* CERN–ANL
// link: the TCP flows under test shared the 45 Mbit/s bottleneck with other
// traffic. A CbrSource models that share as an unreliable constant-bit-rate
// packet stream (with jittered gaps) occupying the drop-tail queue, which
// is what pushes the untuned aggregate toward the ~23 Mbit/s plateau in
// Figure 5 rather than the full link rate.
#pragma once

#include <memory>

#include "common/random.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace gdmp::net {

struct CbrConfig {
  BitsPerSec rate = 20 * kMbps;
  Port port = 9;  // discard
};

/// Constant-bit-rate datagram source from one node to another.
class CbrSource {
 public:
  CbrSource(Network& network, Node& src, Node& dst, CbrConfig config,
            std::uint64_t seed = 1);
  ~CbrSource();

  CbrSource(const CbrSource&) = delete;
  CbrSource& operator=(const CbrSource&) = delete;

  void start();
  void stop();

  Bytes bytes_offered() const noexcept { return bytes_offered_; }

 private:
  void arm();

  Network& network_;
  Node& src_;
  NodeId dst_;
  CbrConfig config_;
  Rng rng_;
  bool running_ = false;
  sim::EventHandle pending_;
  Bytes bytes_offered_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Installs a datagram sink on a node (counts received cross-traffic).
class DatagramSink {
 public:
  explicit DatagramSink(Node& node);

  Bytes bytes_received() const noexcept { return bytes_received_; }

 private:
  Bytes bytes_received_ = 0;
  /// Liveness sentinel: the handler stays installed on the node, which can
  /// outlive the sink.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::net
