#include "sched/cost_selector.h"

#include <algorithm>

namespace gdmp::sched {

void CostAwareSelector::record_mbps(const std::string& host, double mbps) {
  HostHistory& h = history_[host];
  h.mbps = h.samples == 0 ? mbps
                          : (1.0 - smoothing_) * h.mbps + smoothing_ * mbps;
  ++h.samples;
  ++observations_;
}

void CostAwareSelector::record_failure(const std::string& host) {
  // gdmp-lint: hot-alloc — history entry created on first sight of a host, reused after
  HostHistory& h = history_[host];
  // An unmeasured host that failed its probe gets a floor estimate: it is
  // no longer probe-priority but can still recover if a forced retry
  // succeeds.
  h.mbps = h.samples == 0 ? 0.0 : h.mbps * 0.5;
  if (h.samples == 0) h.samples = 1;
  ++h.failures;
}

void CostAwareSelector::note_probe(const std::string& host) {
  history_.try_emplace(host);  // mbps = -1, samples = 0: probe in flight
}

bool CostAwareSelector::measured(const std::string& host) const {
  const auto it = history_.find(host);
  return it != history_.end() && it->second.samples > 0;
}

double CostAwareSelector::estimate(const std::string& host) const {
  const auto it = history_.find(host);
  return it == history_.end() || it->second.samples == 0 ? -1.0
                                                         : it->second.mbps;
}

std::vector<std::size_t> CostAwareSelector::rank(
    const std::vector<Uri>& candidates) {
  std::vector<std::size_t> unprobed;
  std::vector<std::size_t> known;
  std::vector<std::size_t> pending;
  unprobed.reserve(candidates.size());
  known.reserve(candidates.size());
  pending.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto it = history_.find(candidates[i].host);
    if (it == history_.end()) {
      unprobed.push_back(i);
    } else if (it->second.samples > 0) {
      known.push_back(i);
    } else {
      pending.push_back(i);
    }
  }
  std::stable_sort(known.begin(), known.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimate(candidates[a].host) >
                            estimate(candidates[b].host);
                   });
  std::vector<std::size_t> order;
  order.reserve(candidates.size());
  if (!unprobed.empty()) {
    const std::size_t start = probe_cursor_++ % unprobed.size();
    for (std::size_t k = 0; k < unprobed.size(); ++k) {
      order.push_back(unprobed[(start + k) % unprobed.size()]);
    }
  }
  order.insert(order.end(), known.begin(), known.end());
  order.insert(order.end(), pending.begin(), pending.end());
  return order;
}

}  // namespace gdmp::sched
