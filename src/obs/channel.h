// Per-transfer observer channel, mirroring GridFTP's wire-level performance
// and restart markers (Allcock et al. §"performance monitoring").
//
// The GridFTP client/server publish markers here; subscribers include the
// per-site MetricsRegistry and the replication scheduler's EWMA cost
// selector (neither reads perf markers). Lives in obs (not gridftp) so
// sched can consume markers without a dependency inversion — event types
// carry plain numbers, not gridftp structs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace gdmp::obs {

/// Periodic progress report for one stripe (data stream) of a transfer.
struct PerfMarker {
  SimTime time{};
  std::string peer;         // remote host the bytes move to/from
  std::string path;         // file being transferred
  Bytes bytes = 0;          // cumulative payload bytes on this stripe
  std::uint32_t stripe = 0;
  std::uint32_t stripe_count = 1;
};

/// Emitted when a failed attempt is about to be retried from a restart
/// point instead of from scratch.
struct RestartMarker {
  SimTime time{};
  std::string peer;
  std::string path;
  std::uint32_t next_attempt = 0;
  std::size_t ranges_remaining = 0;  // byte ranges still outstanding
};

/// Terminal event for one logical transfer (success or failure).
struct TransferSummary {
  SimTime time{};
  std::string peer;
  std::string path;
  bool ok = false;
  Bytes bytes = 0;
  SimDuration elapsed = 0;
  double mbps = 0;
  std::uint32_t streams = 1;
  std::uint32_t attempts = 1;
};

/// Multi-subscriber fan-out. Subscribing returns a token; unsubscribe with
/// it (e.g. from a destructor) to detach. Publishing with no subscribers is
/// one empty-vector check. Perf markers are opt-in, as on the wire: the
/// channel counts its `on_perf` observers, and GridFTP only samples and
/// builds markers while that count is non-zero (DESIGN.md §5m).
class TransferChannel {
 public:
  struct Observer {
    std::function<void(const PerfMarker&)> on_perf;
    std::function<void(const RestartMarker&)> on_restart;
    std::function<void(const TransferSummary&)> on_complete;
  };
  using Token = std::uint64_t;

  Token subscribe(Observer observer) {
    const Token token = next_token_++;
    if (observer.on_perf) ++perf_subscribers_;
    observers_.emplace_back(token, std::move(observer));
    return token;
  }

  void unsubscribe(Token token) {
    for (auto it = observers_.begin(); it != observers_.end(); ++it) {
      if (it->first == token) {
        if (it->second.on_perf) --perf_subscribers_;
        observers_.erase(it);
        return;
      }
    }
  }

  bool has_subscribers() const noexcept { return !observers_.empty(); }
  bool has_perf_subscribers() const noexcept { return perf_subscribers_ > 0; }

  void perf(const PerfMarker& marker) const {
    for (const auto& [token, obs] : observers_) {
      if (obs.on_perf) obs.on_perf(marker);
    }
  }

  void restart(const RestartMarker& marker) const {
    for (const auto& [token, obs] : observers_) {
      if (obs.on_restart) obs.on_restart(marker);
    }
  }

  void complete(const TransferSummary& summary) const {
    for (const auto& [token, obs] : observers_) {
      if (obs.on_complete) obs.on_complete(summary);
    }
  }

 private:
  std::uint64_t next_token_ = 1;
  std::size_t perf_subscribers_ = 0;
  std::vector<std::pair<Token, Observer>> observers_;
};

}  // namespace gdmp::obs
