// CountingCallback: exactly-once assertion helper for async completions.
//
// The counter lives behind a shared_ptr so a wrapped callback can safely
// fire while (or after) the object that parked it is being torn down —
// exactly the window the destruction-mid-flight tests exercise. Tests
// hand out `wrap<Args...>()` shims as completion callbacks, destroy the
// owner mid-flight, and then assert `exactly_once()`.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "common/result.h"

namespace gdmp::testing {

class CountingCallback {
 public:
  /// Returns a callback that bumps the counter, records the delivered
  /// status, and then forwards to `inner` (which may be empty).
  template <typename... Args>
  std::function<void(Args...)> wrap(
      std::function<void(Args...)> inner = {}) {
    auto state = state_;
    return [state, inner = std::move(inner)](Args... args) {
      ++state->count;
      state->last = status_of(args...);
      if (inner) inner(std::forward<Args>(args)...);
    };
  }

  int count() const noexcept { return state_->count; }
  bool exactly_once() const noexcept { return state_->count == 1; }
  /// Status delivered by the most recent invocation (ok() if none yet, or
  /// if the callback's first argument carries no status).
  const Status& last_status() const noexcept { return state_->last; }
  ErrorCode last_code() const noexcept { return state_->last.code(); }

 private:
  struct State {
    int count = 0;
    Status last = Status::ok();
  };

  static Status status_of() { return Status::ok(); }
  template <typename First, typename... Rest>
  static Status status_of(const First& first, const Rest&...) {
    if constexpr (std::is_convertible_v<const First&, const Status&>) {
      return first;
    } else if constexpr (requires { first.status(); }) {
      return first.status();  // Result<T> and friends
    } else {
      return Status::ok();  // plain records (flow::FlowDone)
    }
  }

  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace gdmp::testing
