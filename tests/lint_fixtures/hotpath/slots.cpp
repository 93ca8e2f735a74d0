// If-guard fixture, second file: the one definition of has_slot(), reached
// from settle() in guard.cpp.
#include "mini.h"

#include <vector>

namespace fx {

namespace {
std::vector<int> slots;
}  // namespace

bool has_slot(int n) {
  slots.push_back(n);  // finding: grows inside a hot function
  return n > 0;
}

}  // namespace fx
