// KERN — event-kernel throughput: the new zero-allocation kernel
// (InlineFunction callbacks + index-tracked 4-ary heap, DESIGN.md §5e)
// versus a frozen copy of the pre-optimization kernel (legacy_sim.h).
//
// Three measurements:
//  1. schedule/fire — the hold model: a constant working set of pending
//     events, each fire schedules one successor at a pseudo-random offset.
//  2. RTO-style churn — schedule a timeout far out, cancel it and schedule
//     a replacement before it fires (the dominant TCP pattern: every ack
//     rearms the retransmission timer). The legacy kernel leaves a tombstone
//     per cancel; the new kernel removes in place, and reschedule() fuses
//     the pair entirely.
//  3. end-to-end — a tuned WAN transfer (bench_util.h harness) timed in
//     wall-clock seconds, showing what the kernel change buys a real
//     workload.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "bench_util.h"
#include "legacy_sim.h"
#include "sim/simulator.h"

namespace {

using namespace gdmp;

// Process CPU time, not wall-clock: the kernels are single-threaded and
// CPU-bound, and CPU time is immune to scheduler preemption on a shared
// host (the end-to-end WAN row still reports wall-clock).
double bench_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::uint32_t lcg(std::uint32_t x) {
  return x * 1664525u + 1013904223u;
}

// Capture payload matching the production callbacks: `this` + a liveness
// guard + a couple of integers is 32-40 bytes (link delivery, RPC timeout,
// stager completion closures). That exceeds std::function's ~16-byte
// small-object buffer — the legacy kernel heap-allocates every one of these
// — while InlineFunction's 64-byte slot keeps them inline.
struct Payload {
  std::uint64_t guard;
  std::uint64_t id;
  std::uint64_t bytes;
};

// --- 1. schedule/fire (hold model) -----------------------------------------
//
// `WorkingSet` events are always pending; every fire schedules exactly one
// successor 1..1000 ticks out carrying a production-sized capture.
template <typename Sim>
struct Hold {
  Sim& sim;
  std::int64_t to_schedule;
  std::uint64_t sink = 0;
  std::uint32_t x = 0x2545f491u;

  void fire(const Payload& payload) {
    sink += payload.id;
    if (to_schedule <= 0) return;
    --to_schedule;
    x = lcg(x);
    const Payload next{payload.guard, payload.id + 1, x};
    sim.schedule(static_cast<SimDuration>(x % 1000 + 1),
                 [this, next] { fire(next); });
  }
};

template <typename Sim>
double run_schedule_fire(std::int64_t events, int working_set) {
  Sim sim;
  Hold<Sim> hold{sim, events};
  for (int i = 0; i < working_set; ++i) {
    hold.fire(Payload{0xabcdefull, static_cast<std::uint64_t>(i), 0});
  }
  const double start = bench_seconds();
  sim.run();
  return bench_seconds() - start;
}

// --- 2. RTO-style churn ----------------------------------------------------
//
// `Timers` pending timeouts; each operation cancels one and schedules a
// replacement ~200 ms out (plus jitter). Time advances 1 ms per 128
// operations so a real fraction of the horizon elapses and the legacy
// kernel must drain the tombstones its cancels left behind — exactly the
// load a multi-stream transfer puts on the queue. `Fused` additionally
// replaces the cancel+schedule pair with reschedule() (new kernel only).
template <typename Sim, typename Handle, bool Fused>
double run_churn(std::int64_t operations, int timers) {
  Sim sim;
  std::vector<Handle> handles(timers);
  std::uint32_t x = 0x9e3779b9u;
  const auto timeout = [&x] {
    return static_cast<SimDuration>(200 * kMillisecond + x % kMillisecond);
  };
  std::uint64_t sink = 0;
  const auto make_timer = [&](int i) {
    // RTO callback shape: connection pointer + guard + stream id.
    const Payload p{0xfeedu, static_cast<std::uint64_t>(i), x};
    return sim.schedule(timeout(), [&sink, p] { sink += p.id; });
  };
  for (int i = 0; i < timers; ++i) {
    x = lcg(x);
    handles[i] = make_timer(i);
  }
  const double start = bench_seconds();
  for (std::int64_t op = 0; op < operations; ++op) {
    x = lcg(x);
    const int i = static_cast<int>(x % timers);
    x = lcg(x);
    if constexpr (Fused) {
      if (!sim.reschedule(handles[i], timeout())) {
        handles[i] = make_timer(i);
      }
    } else {
      sim.cancel(handles[i]);
      handles[i] = make_timer(i);
    }
    if ((op & 127) == 0) sim.run_until(sim.now() + kMillisecond);
  }
  const double elapsed = bench_seconds() - start;
  sim.run();  // drain outside the timed region
  return elapsed;
}

/// Interleaves the contestants rep by rep (A, B, A, B, …) so slow phases of
/// a noisy host hit both kernels alike, and keeps each one's best time.
template <typename... Fns>
std::array<double, sizeof...(Fns)> best_of_interleaved(int reps, Fns&&... fns) {
  std::array<double, sizeof...(Fns)> best;
  best.fill(1e300);
  for (int r = 0; r < reps; ++r) {
    std::size_t i = 0;
    ((best[i] = std::min(best[i], fns()), ++i), ...);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gdmp::bench;

  const bool smoke = smoke_mode(argc, argv);
  BenchReport report("sim_kernel", smoke);
  const int reps = smoke ? 1 : 5;

  // 1. schedule/fire.
  const std::int64_t fire_events = smoke ? 20'000 : 4'000'000;
  const int working_set = smoke ? 256 : 16384;
  const auto [fire_new, fire_old] = best_of_interleaved(
      reps,
      [&] { return run_schedule_fire<sim::Simulator>(fire_events, working_set); },
      [&] {
        return run_schedule_fire<legacy::Simulator>(fire_events, working_set);
      });
  const double fire_ratio = fire_old / fire_new;
  std::printf("KERN: event-kernel throughput (new vs legacy kernel)\n\n");
  std::printf("%-28s %12s %12s %8s\n", "benchmark", "new Mev/s", "legacy Mev/s",
              "speedup");
  std::printf("%-28s %12.2f %12.2f %7.2fx\n", "schedule/fire (hold model)",
              fire_events / fire_new / 1e6, fire_events / fire_old / 1e6,
              fire_ratio);
  report.add({{"name", "schedule_fire"},
              {"events", fire_events},
              {"new_seconds", fire_new},
              {"legacy_seconds", fire_old},
              {"speedup", fire_ratio}});

  // 2. RTO-style cancel+schedule churn.
  const std::int64_t churn_ops = smoke ? 20'000 : 2'000'000;
  const int timers = smoke ? 64 : 256;
  const auto [churn_new, churn_old, churn_fused] = best_of_interleaved(
      reps,
      [&] {
        return run_churn<sim::Simulator, sim::EventHandle, false>(churn_ops,
                                                                  timers);
      },
      [&] {
        return run_churn<legacy::Simulator, legacy::EventHandle, false>(
            churn_ops, timers);
      },
      [&] {
        return run_churn<sim::Simulator, sim::EventHandle, true>(churn_ops,
                                                                 timers);
      });
  const double churn_ratio = churn_old / churn_new;
  const double fused_ratio = churn_old / churn_fused;
  std::printf("%-28s %12.2f %12.2f %7.2fx\n", "RTO churn (cancel+sched)",
              churn_ops / churn_new / 1e6, churn_ops / churn_old / 1e6,
              churn_ratio);
  std::printf("%-28s %12.2f %12s %7.2fx\n", "RTO churn (reschedule)",
              churn_ops / churn_fused / 1e6, "-", fused_ratio);
  report.add({{"name", "rto_churn_cancel_schedule"},
              {"operations", churn_ops},
              {"new_seconds", churn_new},
              {"legacy_seconds", churn_old},
              {"speedup", churn_ratio}});
  report.add({{"name", "rto_churn_reschedule"},
              {"operations", churn_ops},
              {"new_seconds", churn_fused},
              {"legacy_seconds", churn_old},
              {"speedup", fused_ratio}});

  // 3. End-to-end WAN transfer on the production kernel. No in-process
  // legacy comparison is possible (the whole net/storage stack now runs on
  // the new kernel); README §performance pins the before/after wall times.
  WanBenchConfig config;
  config.seed = 7;
  const Bytes file_size = smoke ? 1 * kMiB : 25 * kMiB;
  const int streams = smoke ? 1 : 3;
  // Best of `reps` identical runs: a single sub-second wall time on a
  // shared host is too noisy for the packet-path gate below.
  TransferSample sample;
  double wan_wall = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double wan_start = wall_seconds();
    sample = run_wan_get(config, file_size, streams, 1 * kMiB);
    wan_wall = std::min(wan_wall, wall_seconds() - wan_start);
  }
  std::printf("%-28s %12.2f %12s %8s  (wall s, %lld MiB tuned get)\n",
              "end-to-end WAN transfer", wan_wall, "-", "-",
              static_cast<long long>(file_size / kMiB));
  // operations = packets delivered on the path's links, so the perf gate
  // tracks packet-path ops/s.
  report.add({{"name", "wan_transfer"},
              {"file_mib", static_cast<long long>(file_size / kMiB)},
              {"streams", streams},
              {"ok", sample.ok},
              {"sim_mbps", sample.mbps},
              {"operations", static_cast<long long>(sample.packets_delivered)},
              {"wall_seconds", wan_wall}});

  std::printf(
      "\ntarget: >=1.5x schedule/fire, >=3x cancel churn vs the legacy\n"
      "kernel (DESIGN.md §5e); reschedule() shows the fused re-arm path.\n");
  return 0;
}
