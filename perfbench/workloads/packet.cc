// packet: the 24-server testbed flat-tree at 1 Gb/s with Figure 10's iPerf
// pattern — 72 persistent MPTCP flows (k = 4), each server to its
// same-index peer in every other Pod — plus seeded finite flows between
// the same peer pairs.
//
// Set-up compiles the Clos, global and local modes (rule counting on). One
// round: staged Clos -> global -> local -> Clos conversions through
// ConversionExecutor over a 1%-lossy control channel; the three execution
// timelines replayed through one PacketSim with drive_packet_sim to a fixed
// horizon, by which every finite flow must have completed; after each
// timeline segment, failure drills on fresh compiles of the mode it
// converted to. The
// packet event loop does essentially all the work; KSP and the fluid model
// do none.
//
// The cycle returns to Clos so that every round runs three conversions of
// three kinds: with an odd number of kinds, the median conversion latency
// is the middle kind's rather than a jump between two.
#include <algorithm>

#include "core/flat_tree.h"
#include "sim/packet.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace flattree;

constexpr std::uint32_t kK = 4;
// Simulated schedule: conversion i starts at kConvertAt[i] (and no earlier
// than kGap after the previous one finished) and the event loop runs to a
// fixed horizon, so a round's simulated span does not depend on the seed.
constexpr double kConvertAt[] = {0.1, 0.5, 0.9};
constexpr double kGap = 0.05;
constexpr double kHorizon = 1.4;
constexpr double kTail = 0.1;  // minimum run past the last conversion
constexpr std::uint32_t kFiniteFlows = 24;
constexpr std::uint32_t kDrillsPerMode = 5;

FlatTreeParams fabric() {
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.clos.link_bps = 1e9;
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  return params;
}

ControllerOptions controller_options(const obs::ObsSink& sink) {
  ControllerOptions options;
  options.k_global = options.k_local = options.k_clos = kK;
  options.delay.controllers = 64;
  options.sink = sink;
  return options;
}

class PacketWorkload final : public Workload {
 public:
  PacketWorkload(std::uint64_t seed, const obs::ObsSink& sink)
      : seed_{seed}, controller_{FlatTree{fabric()}, controller_options(sink)} {
    const ClosParams clos = fabric().clos;
    const std::uint32_t servers = clos.total_servers();
    const std::uint32_t per_pod = servers / clos.pods;
    for (std::uint32_t s = 0; s < servers; ++s) {
      for (std::uint32_t pod = 1; pod < clos.pods; ++pod) {
        Flow f;
        f.src = s;
        f.dst = (s + per_pod * pod) % servers;
        flows_.push_back(f);  // bytes = 0: persistent
      }
    }
    persistent_ = flows_.size();
    // Finite transfers between iPerf peer pairs, so the tracked pair set
    // (and with it the conversions' work) is the same for every seed.
    Rng rng{seed};
    for (std::uint32_t i = 0; i < kFiniteFlows; ++i) {
      Flow f = flows_[rng.next_below(persistent_)];
      f.bytes = 0.5e6 + 1.5e6 * rng.next_double();
      f.start_s = 0.5 * rng.next_double();
      flows_.push_back(f);
    }
    pairs_ = pairs_of(flows_);

    for (const PodMode mode :
         {PodMode::kClos, PodMode::kGlobal, PodMode::kLocal}) {
      modes_.push_back(
          controller_.compile(ModeAssignment::uniform(clos.pods, mode), kK));
    }
  }

  void round(RoundContext& ctx) override {
    ConversionExecOptions options;
    options.ocs_partitions = 1;
    options.channel.drop_probability = 0.01;
    options.seed = seed_;
    options.sink = ctx.sink;
    const ConversionExecutor executor{controller_, options};
    std::vector<ExecutionReport> reports;
    for (std::size_t i = 0; i < 3; ++i) {
      const double at =
          i == 0 ? kConvertAt[0]
                 : std::max(kConvertAt[i], reports.back().finish_s + kGap);
      auto span = ctx.tracer.span("conv_exec.execute");
      reports.push_back(executor.execute(modes_[i], modes_[(i + 1) % 3],
                                         pairs_, ConversionFaults{}, at));
      ctx.samples.convert_ms.push_back(span.close() * 1e3);
    }
    {
      auto check = ctx.tracer.span("check.conversion", SpanKind::kAside);
      for (const ExecutionReport& report : reports) {
        ctx.ops.check(conversion_contract_holds(controller_, report, kCalm),
                      "conversion: terminal state is the last checkpoint");
        digest_report(ctx.digest, report);
      }
    }

    PacketSim sim;
    {
      auto span = ctx.tracer.span("packet.setup");
      if (ctx.sink.enabled()) sim.attach_obs(ctx.sink);
      sim.set_network(*reports.front().timeline.front().graph);
      for (const Flow& f : flows_) {
        sim.add_flow(f.src, f.dst, f.bytes, f.start_s,
                     conversion_paths_for(reports.front(), f));
      }
    }
    // Each timeline segment is followed by failure drills on the mode it
    // converted to, so the drills' latency samples spread over the round
    // like the event loop's time does.
    Rng rng{seed_ + 1};
    for (std::size_t i = 0; i < reports.size(); ++i) {
      {
        auto span = ctx.tracer.span("packet.run");
        const double until =
            i + 1 < reports.size()
                ? reports[i + 1].start_s
                : std::max(kHorizon, reports[i].finish_s + kTail);
        drive_packet_sim(sim, reports[i], flows_, until);
      }
      for (std::uint32_t d = 0; d < kDrillsPerMode; ++d) {
        failure_drill(ctx, controller_, modes_[(i + 1) % 3].assignment(), kK,
                      pairs_, rng);
      }
    }
    {
      auto check = ctx.tracer.span("check.flows", SpanKind::kAside);
      std::uint64_t incomplete = 0;
      for (std::uint32_t i = 0; i < sim.flow_count(); ++i) {
        ctx.digest.add(sim.flow_bytes_acked(i));
        if (i < persistent_) continue;
        if (!sim.flow_completed(i)) ++incomplete;
        ctx.digest.add(sim.flow_finish_time(i));
      }
      ctx.ops.tally(flows_.size() - persistent_, incomplete,
                    "finite packet flows completed");
      ctx.digest.add(sim.events_processed());
      ctx.digest.add(sim.packets_dropped());
    }
  }

 private:
  std::uint64_t seed_;
  Controller controller_;
  flattree::Workload flows_;
  std::size_t persistent_{0};
  PairList pairs_;
  std::vector<CompiledMode> modes_;  // Clos, global, local
};

}  // namespace

std::unique_ptr<Workload> make_packet(std::uint64_t seed,
                                      const obs::ObsSink& sink) {
  return std::make_unique<PacketWorkload>(seed, sink);
}

}  // namespace perfbench
