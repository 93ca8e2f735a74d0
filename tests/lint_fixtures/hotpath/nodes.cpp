// Node-container fixture: remember() is reached from pump() in engine.cpp.
// forget_all() clears `seen`, but clear() keeps no nodes, so every insert
// into the map still allocates and remember()'s insert is a finding.
#include "mini.h"

#include <map>

namespace fx {

namespace {
std::map<int, int> seen;
}  // namespace

void remember(int n) {
  seen.insert({n, n});  // finding: one node per insert
}

void forget_all() { seen.clear(); }

}  // namespace fx
