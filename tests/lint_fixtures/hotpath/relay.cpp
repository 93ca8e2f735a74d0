// Call-argument fixture: `defer(std::move(batch), [..](..) {`,
// `defer(std::move(batch), {})` and `[done = std::move(done)](..) {` are
// calls of std::move, not definitions of a `move` whose body is the lambda
// or the braces. relay() is hot (pump calls it) and calls std::move, so a
// misparsed `move` here would turn cold_relay()'s lambdas hot and report
// their allocations.
#include "mini.h"

#include <utility>
#include <vector>

namespace fx {

void relay(int n) {
  std::vector<int> batch(static_cast<std::size_t>(n));
  std::vector<int> sink = std::move(batch);
  static_cast<void>(sink);
}

void cold_relay(std::vector<int> batch, std::vector<int> done) {
  defer(std::move(batch), [](std::vector<int>& out) {
    out.push_back(1);  // cold: never reported
  });
  defer(std::move(batch), {});
  defer({}, [done = std::move(done)](std::vector<int>& out) {
    out.push_back(2);  // cold: never reported
  });
}

}  // namespace fx
