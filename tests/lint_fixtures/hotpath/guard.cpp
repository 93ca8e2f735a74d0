// If-guard fixture: settle(), reached from pump() in engine.cpp, calls
// has_slot() as an `if` guard. The guard is no definition of has_slot(), so
// the call resolves to the one real definition in slots.cpp, which
// allocates and is therefore a finding.
#include "mini.h"

namespace fx {

void settle(int n) {
  if (has_slot(n)) {
    return;
  }
}

}  // namespace fx
