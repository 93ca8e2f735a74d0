// Cost-aware replica selection from observed bandwidth history.
//
// The paper leaves cost-function replica selection as future work ("See
// [VTF01] for some early ideas", §4.2). This is that selector: every
// completed GridFTP transfer feeds an exponentially weighted moving
// average of per-source throughput, and candidates are ranked by the
// estimate, with never-measured sources probed exactly once so history
// eventually covers every replica site. Failures decay a source's
// estimate so flaky-but-fast sites lose preference. Its one user is the
// scheduler's dispatch chooser (the best-ranked source with a free slot).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/uri.h"

namespace gdmp::sched {

class CostAwareSelector {
 public:
  /// `smoothing` is the EWMA weight of the newest observation.
  explicit CostAwareSelector(double smoothing = 0.3)
      : smoothing_(smoothing) {}

  /// Feeds a completed transfer's measured throughput.
  void record_mbps(const std::string& host, double mbps);

  /// A failed transfer halves the source's estimate (and settles a
  /// pending probe, so the host is not immediately probed again).
  void record_failure(const std::string& host);

  /// Marks a probe dispatched to a never-measured host. Until its result
  /// arrives the host ranks last, so concurrent dispatches do not pile
  /// onto an unmeasured (possibly slow) source.
  void note_probe(const std::string& host);

  bool measured(const std::string& host) const;

  /// EWMA throughput estimate in Mbit/s; -1 if never measured.
  double estimate(const std::string& host) const;

  /// Candidate indices ordered most- to least-preferred: unprobed hosts
  /// first (rotating, so repeated calls spread probes), then measured
  /// hosts by descending estimate, then probes still in flight.
  std::vector<std::size_t> rank(const std::vector<Uri>& candidates);

  std::int64_t observations() const noexcept { return observations_; }

 private:
  struct HostHistory {
    double mbps = -1.0;  // -1 = probe dispatched, no result yet
    std::int64_t samples = 0;
    std::int64_t failures = 0;
  };

  double smoothing_;
  std::map<std::string, HostHistory> history_;
  std::int64_t observations_ = 0;
  std::size_t probe_cursor_ = 0;
};

}  // namespace gdmp::sched
