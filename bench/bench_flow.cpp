// FLOW — cost and scale of the fluid transfer model (DESIGN.md §5f).
//
// Part 1 (event economy): the same GridFTP WAN transfer under the packet
// model and the fluid model, at Figure 5/6 operating points both can run.
// The interesting column is simulator events per transfer: the packet
// model fires one event per segment/ack/timer, the fluid model a handful
// per flow (start, renegotiations, completion). The ratio is the price of
// per-segment fidelity — and the budget the fluid model frees for scale.
//
// Part 2 (grid scale): 10^5 concurrent transfers across a 32-site grid,
// something the packet model cannot attempt (it would be ~10^9 events and
// per-stream TCP state). Flows ramp up over a minute of sim time, drain
// under max-min fair sharing with renegotiation batching, and the bench
// reports events/flow and the renegotiation-locality counters (flows,
// rate classes and links recomputed).
//
// stdout is sim-deterministic by construction (byte-identical across
// same-seed and hash-perturbed runs; scripts/check.sh stage 5 runs this
// bench under tools/determinism_check). Wall-clock timings therefore go
// to stderr and BENCH_flow.json only.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "flow/flow_engine.h"
#include "net/topology.h"

namespace {

using namespace gdmp;
using namespace gdmp::bench;

/// Deterministic xorshift64* — the bench must not touch wall-clock or
/// global random state (sim-determinism invariant).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dULL;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

void part1_event_economy(BenchReport& report, bool smoke) {
  const Bytes file_size = smoke ? 1 * kMiB : 25 * kMiB;
  const std::vector<int> stream_counts =
      smoke ? std::vector<int>{1} : std::vector<int>{1, 5};

  std::printf(
      "FLOW part 1: simulator events per transfer, packet vs fluid\n"
      "%lld MiB over the 45 Mbit/s / 125 ms CERN-ANL path, 64 KB buffers\n\n"
      "%-8s %12s %12s %12s %12s %8s\n",
      static_cast<long long>(file_size / kMiB), "streams", "packet Mb/s",
      "fluid Mb/s", "packet ev", "fluid ev", "ratio");

  for (const int streams : stream_counts) {
    WanBenchConfig config;
    config.seed = static_cast<std::uint64_t>(file_size) ^ (streams * 977);
    const TransferSample packet =
        run_wan_get(config, file_size, streams, 64 * kKiB,
                    flow::TransferModel::kPacket);
    const TransferSample fluid =
        run_wan_get(config, file_size, streams, 64 * kKiB,
                    flow::TransferModel::kFluid);
    const double ratio =
        fluid.events > 0
            ? static_cast<double>(packet.events) /
                  static_cast<double>(fluid.events)
            : 0.0;
    std::printf("%-8d %12.2f %12.2f %12llu %12llu %7.0fx\n", streams,
                packet.ok ? packet.mbps : -1.0, fluid.ok ? fluid.mbps : -1.0,
                static_cast<unsigned long long>(packet.events),
                static_cast<unsigned long long>(fluid.events), ratio);
    report.add({{"part", "event_economy"},
                {"file_mib", static_cast<long long>(file_size / kMiB)},
                {"streams", streams},
                {"packet_mbps", packet.mbps},
                {"fluid_mbps", fluid.mbps},
                {"packet_events", static_cast<unsigned long long>(packet.events)},
                {"fluid_events", static_cast<unsigned long long>(fluid.events)},
                {"event_ratio", ratio}});
  }
  std::printf(
      "\nacceptance line: fluid uses >=50x fewer events than packet at\n"
      "every operating point above.\n\n");
}

void part2_grid_scale(BenchReport& report, bool smoke) {
  const int n_sites = smoke ? 8 : 32;
  const long long n_flows = smoke ? 2000 : 100000;

  std::printf(
      "FLOW part 2: %lld concurrent fluid transfers, %d-site grid\n",
      n_flows, n_sites);

  sim::Simulator simulator;
  net::Network network(simulator);
  std::vector<net::GridSiteLink> sites(static_cast<std::size_t>(n_sites));
  for (int i = 0; i < n_sites; ++i) {
    sites[static_cast<std::size_t>(i)].site_name = "site" + std::to_string(i);
  }
  const net::GridTopology topo = make_grid_topology(network, sites);

  // Batch renegotiations: completions landing within one quantum coalesce
  // into a single fair-share recompute, the knob that keeps 10^5 flows'
  // worth of churn sublinear (DESIGN.md §5f).
  flow::FluidConfig fluid;
  fluid.reneg_quantum = 250 * kMillisecond;
  flow::FlowEngine engine(simulator, network, fluid);

  // Shared context so the per-flow callbacks fit the zero-alloc
  // InlineFunction<.., 64> budget (they capture one pointer + an index).
  struct ScaleCtx {
    flow::FlowEngine& engine;
    std::vector<flow::FlowSpec> specs;
    long long completed = 0;
    long long peak_active = 0;
    Bytes bytes_moved = 0;
    SimTime last_finish = 0;
  } ctx{engine, {}};

  Rng rng{0x9e3779b97f4a7c15ULL};
  ctx.specs.reserve(static_cast<std::size_t>(n_flows));

  // Ramp all flows up over five sim seconds, uniformly scattered so start
  // renegotiations coalesce. The 64 KiB window caps every flow at
  // ~2 Mbit/s over the ~250 ms grid RTT, so even an uncontended early
  // flow needs >= 8 s for its 2 MiB minimum — nothing finishes before the
  // ramp does, and the peak-concurrency gauge reads the full population.
  constexpr SimDuration kRamp = 5 * kSecond;
  for (long long i = 0; i < n_flows; ++i) {
    flow::FlowSpec spec;
    const auto src = rng.below(static_cast<std::uint64_t>(n_sites));
    auto dst = rng.below(static_cast<std::uint64_t>(n_sites) - 1);
    if (dst >= src) ++dst;  // distinct sites
    spec.src = topo.hosts[src]->id();
    spec.dst = topo.hosts[dst]->id();
    spec.bytes = static_cast<Bytes>(2 * kMiB + rng.below(2 * kMiB));
    spec.window = 64 * kKiB;
    const SimDuration at =
        static_cast<SimDuration>(rng.below(static_cast<std::uint64_t>(kRamp)));
    const std::size_t index = ctx.specs.size();
    ctx.specs.push_back(spec);
    simulator.schedule(at, [c = &ctx, index] {
      (void)c->engine.start(c->specs[index], [c](const flow::FlowDone& done) {
        ++c->completed;
        c->bytes_moved += done.transferred;
        c->last_finish = done.finished;
      });
      const auto active = static_cast<long long>(c->engine.active_flows());
      if (active > c->peak_active) c->peak_active = active;
    });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  simulator.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const flow::FlowEngineStats& stats = engine.stats();
  const auto events = simulator.events_fired();
  const double events_per_flow =
      static_cast<double>(events) / static_cast<double>(n_flows);
  const auto per_reneg = [&stats](std::int64_t total) {
    return stats.renegotiations > 0
               ? static_cast<double>(total) /
                     static_cast<double>(stats.renegotiations)
               : 0.0;
  };
  const double flows_per_reneg = per_reneg(stats.flows_recomputed);
  const double classes_per_reneg = per_reneg(stats.classes_recomputed);

  std::printf(
      "  completed            %lld / %lld\n"
      "  peak concurrent      %lld\n"
      "  payload moved        %.1f GiB in %.0f sim seconds\n"
      "  simulator events     %llu  (%.1f per flow)\n"
      "  renegotiations       %lld  (%.1f flows recomputed each)\n"
      "  rate classes         %.1f recomputed per renegotiation\n"
      "  links recomputed     %lld\n",
      ctx.completed, n_flows, ctx.peak_active,
      static_cast<double>(ctx.bytes_moved) / static_cast<double>(kGiB),
      to_seconds(ctx.last_finish), static_cast<unsigned long long>(events),
      events_per_flow, static_cast<long long>(stats.renegotiations),
      flows_per_reneg, classes_per_reneg,
      static_cast<long long>(stats.links_recomputed));
  // Host timing is run-dependent; keep it off the deterministic stdout.
  std::fprintf(stderr, "  wall clock           %.2f s (%.0f flows/s)\n",
               wall_seconds, static_cast<double>(n_flows) / wall_seconds);

  report.add({{"part", "grid_scale"},
              {"sites", n_sites},
              {"flows", n_flows},
              {"completed", ctx.completed},
              {"peak_active", ctx.peak_active},
              {"bytes_moved", static_cast<long long>(ctx.bytes_moved)},
              {"sim_seconds", to_seconds(ctx.last_finish)},
              {"events", static_cast<unsigned long long>(events)},
              {"events_per_flow", events_per_flow},
              {"renegotiations", stats.renegotiations},
              {"flows_per_renegotiation", flows_per_reneg},
              {"classes_per_renegotiation", classes_per_reneg},
              {"links_recomputed", stats.links_recomputed},
              {"wall_seconds", wall_seconds}});
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  BenchReport report("flow", smoke);
  part1_event_economy(report, smoke);
  part2_grid_scale(report, smoke);
  return 0;
}
