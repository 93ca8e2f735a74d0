#pragma once
// Hot-path fixture: a miniature event-driven engine for the --hot-paths
// analyses. The linter only tokenizes, so everything here is
// declaration-only and never compiled.

#include <vector>

namespace sim {
class EventHandle;
}  // namespace sim

namespace fx {

struct Sim {
  sim::EventHandle schedule(int delay);
  sim::EventHandle schedule_at(int when);
  void cancel(sim::EventHandle target);
  bool reschedule(sim::EventHandle target, int delay);
  bool set_daemon(sim::EventHandle target, bool on);
};

// gdmp-lint: hot-path — fixture kernel dispatch loop
void pump(int rounds);

void helper_alloc(int n);
void remember(int n);
void cold_path();
void settle(int n);
bool has_slot(int n);

}  // namespace fx
