// Hot-path reachability fixture: pump() is rooted by the declaration
// annotation in mini.h, drain() by a definition-line annotation, and the
// scheduled lambdas by the callback-sink scan. cold_path() allocates but is
// reached from no root, so it must produce no finding.
#include "mini.h"

#include <functional>
#include <memory>

namespace fx {

void pump(int rounds) {
  for (int i = 0; i < rounds; ++i) { helper_alloc(i); remember(i); settle(i); }
}

// gdmp-lint: hot-path — fixture render loop; scratch is capacity-reused
void drain(std::vector<int>& out, std::vector<int>& scratch, int n) {
  scratch.clear();
  for (int i = 0; i < n; ++i) scratch.push_back(i);  // exempt: pooled
  for (int i = 0; i < n; ++i) out.push_back(i);      // finding
  std::function<int(int)> op = [](int v) { return v + 1; };  // finding
  static_cast<void>(op(n));
}

void arm_tick(Sim& sim) {
  sim.schedule_at(7, [] {
    auto tick = std::make_unique<int>(0);  // finding: alloc in hot callback
    static_cast<void>(tick);
  });
}

void admit(Sim& sim) {
  sim.schedule(5, [] {
    // gdmp-lint: hot-alloc — one session block per admission, amortised over its life
    auto session = std::make_shared<int>(0);
    static_cast<void>(session);
  });
}

void cold_path() {
  std::vector<int> stale;
  stale.push_back(1);  // cold: never reported
}

}  // namespace fx
