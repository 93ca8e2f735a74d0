// Replica selection: from catalog locations to a source replica.
//
// "This information can then be used as a basis for replica selection
// based on cost functions, which is part of planned future work. (See
// [VTF01] for some early ideas.)" — §4.2. GDMP 2.0 shipped with trivial
// selection (the first catalog entry); the [VTF01]-style cost selector
// lives with the replication scheduler (sched/cost_selector.h).
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "common/uri.h"

namespace gdmp::core {

using SelectorFn = std::function<std::size_t(const std::vector<Uri>&)>;

/// Always the first catalog entry (GDMP 2.0 behaviour).
SelectorFn first_replica_selector();

/// The source candidates a consumer at `own_site` can pull a file from:
/// its catalog locations parsed as URLs, in catalog order, skipping
/// malformed ones and the site's own replicas.
std::vector<Uri> remote_candidates(
    const std::vector<PhysicalFileName>& locations, std::string_view own_site);

}  // namespace gdmp::core
