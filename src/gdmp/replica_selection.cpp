#include "gdmp/replica_selection.h"

namespace gdmp::core {

SelectorFn first_replica_selector() {
  return [](const std::vector<Uri>&) { return std::size_t{0}; };
}

std::vector<Uri> remote_candidates(
    const std::vector<PhysicalFileName>& locations,
    std::string_view own_site) {
  std::vector<Uri> candidates;
  candidates.reserve(locations.size());
  for (const PhysicalFileName& pfn : locations) {
    auto uri = parse_uri(pfn);
    if (uri.is_ok() && uri->host != own_site) {
      candidates.push_back(std::move(*uri));
    }
  }
  return candidates;
}

}  // namespace gdmp::core
