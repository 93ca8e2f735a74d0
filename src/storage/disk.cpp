#include "storage/disk.h"

#include <algorithm>
#include <cassert>

namespace gdmp::storage {

Disk::~Disk() {
  // Moved out first: dropping a run's callback can destroy its owner, and
  // the owner may cancel() that run here on its way out.
  std::vector<Run> runs = std::move(runs_);
  runs_.clear();
  for (const Run& run : runs) simulator_.cancel(run.event);
}

SimTime Disk::commit(Bytes bytes, SimTime issue_at) {
  const SimTime start = std::max(busy_until_, issue_at);
  const SimDuration took = service(bytes);
  busy_until_ = start + took;
  ++stats_.operations;
  stats_.bytes_moved += bytes;
  stats_.busy_time += took;
  return busy_until_;
}

void Disk::submit(Bytes bytes, Done done) {
  const SimTime now = simulator_.now();
  materialise(now);
  simulator_.schedule_at(commit(bytes, now), std::move(done));
  if (!runs_.empty()) project();
}

Disk::RunId Disk::run(std::vector<Bytes> sizes, SimDuration think,
                      Done done) {
  assert(!sizes.empty());
  SimDuration pending = 0;
  for (const Bytes bytes : sizes) pending += service(bytes);
  Run& run = runs_.emplace_back();
  run.id = ++last_run_;
  run.sizes = std::move(sizes);
  run.think = think;
  run.committed.issue_at = simulator_.now();
  run.committed.pending = pending;
  run.done = std::move(done);
  project();  // keys the new run's event, re-keys the runs it delays
  return last_run_;
}

void Disk::cancel(RunId id) {
  const auto it = std::find_if(runs_.begin(), runs_.end(),
                               [id](const Run& run) { return run.id == id; });
  if (it == runs_.end()) return;
  materialise(simulator_.now());
  simulator_.cancel(it->event);
  // Destroyed on return, once the disk is consistent again.
  const Done dropped = std::move(it->done);
  runs_.erase(it);
  project();  // the other runs may now finish sooner
  // gdmp-lint: dropped-ok — a cancelled run never fires (header contract)
}

Disk::Run* Disk::first_issue(Progress Run::*progress) {
  Run* first = nullptr;
  for (Run& run : runs_) {
    const Progress& at = run.*progress;
    if (at.next < run.sizes.size() &&
        (first == nullptr || at.issue_at < (first->*progress).issue_at)) {
      first = &run;
    }
  }
  return first;
}

void Disk::materialise(SimTime t) {
  if (runs_.empty()) return;
  for (Run* run = first_issue(&Run::committed);
       run != nullptr && run->committed.issue_at <= t;
       run = first_issue(&Run::committed)) {
    Progress& at = run->committed;
    const Bytes bytes = run->sizes[at.next++];
    at.pending -= service(bytes);
    at.issue_at = commit(bytes, at.issue_at) + run->think;
  }
}

void Disk::project() {
  // While two or more runs have reads left, their reads interleave on a
  // virtual copy of the head, stepped in issue order as materialise() will
  // commit them. The last such run then finds the head idle at each read
  // after its next one, so its end follows from its pending service time.
  SimTime busy = busy_until_;
  std::size_t reading = 0;
  for (Run& run : runs_) {
    run.ahead = run.committed;
    if (run.ahead.next < run.sizes.size()) ++reading;
  }
  while (reading > 1) {
    Run& run = *first_issue(&Run::ahead);
    Progress& at = run.ahead;
    const SimDuration took = service(run.sizes[at.next++]);
    at.pending -= took;
    busy = std::max(busy, at.issue_at) + took;
    at.issue_at = busy + run.think;
    if (at.next == run.sizes.size()) --reading;
  }
  for (Run& run : runs_) {
    const Progress& at = run.ahead;
    SimTime due = at.issue_at;
    if (at.next < run.sizes.size()) {
      due = std::max(busy, at.issue_at) + at.pending +
            static_cast<SimDuration>(run.sizes.size() - at.next) * run.think;
    }
    if (due == run.due && run.event.valid()) continue;
    run.due = due;
    if (simulator_.reschedule_at(run.event, due)) continue;
    const RunId id = run.id;
    // gdmp-lint: owned-callback — ~Disk() cancels this event and the Simulator outlives every Disk
    run.event = simulator_.schedule_at(due, [this, id] { finish(id); });
  }
}

void Disk::finish(RunId id) {
  materialise(simulator_.now());
  const auto it = std::find_if(runs_.begin(), runs_.end(),
                               [id](const Run& run) { return run.id == id; });
  assert(it != runs_.end());
  Done done = std::move(it->done);
  runs_.erase(it);
  done();
}

}  // namespace gdmp::storage
