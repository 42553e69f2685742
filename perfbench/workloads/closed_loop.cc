// closed_loop: AutopilotLoop::run on the 24-server testbed flat-tree (k = 2,
// rule counting on), starting from Clos, over a seeded Web <-> Hadoop trace
// whose locality mix flips between the two (60 s, period 20 s, 600
// flows/s), with
// staged, checkpointed conversions.
//
// The job is the loop itself: the incremental max-min solver under arrival
// and completion churn dominates, and KSP is cheap at this size. After it,
// outside job_s, the benchmark verifies the decision log by replaying every
// conversion the loop executed through the public API — compile both
// endpoint modes, re-execute with the loop's exact options and tracked
// pairs, check the replay equals the loop's report — and runs failure
// drills on fresh compiles of each converted-to mode. Those timed calls give this workload's
// compile, convert and repair latency samples.
//
// The locality mix flips as a square wave (Web <-> Hadoop every 10 s)
// rather than a sine: under the sine the number of conversions ranged from
// 1 to 6 across seeds, which made the replay latencies depend on the seed.
#include <cmath>

#include "control/autopilot/autopilot.h"
#include "core/flat_tree.h"
#include "traffic/traces.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace flattree;

constexpr double kDuration = 60.0;
constexpr double kPeriod = 20.0;
constexpr double kEpoch = 1.0;
constexpr std::uint32_t kK = 2;
constexpr std::uint32_t kDrillsPerConversion = 3;

FlatTreeParams fabric() {
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  return params;
}

ControllerOptions controller_options(const obs::ObsSink& sink) {
  ControllerOptions options;
  options.count_rules = true;
  options.delay.controllers = 24;
  options.k_global = options.k_local = options.k_clos = kK;
  options.sink = sink;
  return options;
}

class ClosedLoopWorkload final : public Workload {
 public:
  ClosedLoopWorkload(std::uint64_t seed, const obs::ObsSink& sink)
      : seed_{seed}, controller_{FlatTree{fabric()}, controller_options(sink)} {
    TraceParams web = TraceParams::web();
    TraceParams hadoop = TraceParams::hadoop1();
    web.flows_per_s = hadoop.flows_per_s = 600.0;
    web.mean_flow_bytes = hadoop.mean_flow_bytes = 8e6;
    ModulatedTraceParams trace;
    trace.low = web;
    trace.high = hadoop;
    trace.duration_s = kDuration;
    trace.shape = ModulatedTraceParams::Shape::kSquare;
    trace.period_s = kPeriod;
    trace.seed = seed;
    flows_ = generate_modulated_trace(fabric().clos, trace);

    // The loop's own epoch partition: the replay tracks the pairs of the
    // epoch a conversion executed in, exactly as the loop does.
    epoch_flows_.resize(static_cast<std::size_t>(std::ceil(kDuration / kEpoch)));
    for (const Flow& f : flows_) {
      const auto e = static_cast<std::size_t>(f.start_s / kEpoch);
      epoch_flows_[std::min(e, epoch_flows_.size() - 1)].push_back(f);
    }

    options_.epoch_s = kEpoch;
    options_.estimator.half_life_s = 1.0;
    options_.policy.min_dwell_s = 1.5;
    options_.policy.min_gain_frac = 0.05;
    options_.policy.gain_cost_multiple = 1.0;
    options_.policy.horizon_s = 2.0;
    options_.policy.flows_per_entry = 6;
    options_.exec.stage_checkpoints = true;
    options_.exec.seed = seed;
  }

  void round(RoundContext& ctx) override {
    AutopilotOptions options = options_;
    options.sink = ctx.sink;
    options.exec.sink = ctx.sink;
    const ModeAssignment initial =
        ModeAssignment::uniform(fabric().clos.pods, PodMode::kClos);
    AutopilotResult result;
    {
      auto span = ctx.tracer.span("autopilot.run");
      result = AutopilotLoop{controller_, options}.run(flows_, initial,
                                                      kDuration);
    }
    {
      auto check = ctx.tracer.span("check.flows", SpanKind::kAside);
      ctx.ops.check(result.flows == flows_.size(), "autopilot served every flow");
      ctx.ops.tally(flows_.size(), flows_.size() - result.completed,
                    "autopilot flows completed");
    }
    for (const EpochRecord& rec : result.epochs) {
      ctx.digest.add(static_cast<std::uint64_t>(rec.decision.action));
      for (const PodMode m : rec.assignment.pod_modes) {
        ctx.digest.add(static_cast<std::uint64_t>(m));
      }
      ctx.digest.add(static_cast<std::uint64_t>(rec.completed));
      ctx.digest.add(rec.fct_sum_s);
      ctx.digest.add(rec.conversion_finish_s);
    }
    auto verify = ctx.tracer.span("check.replay", SpanKind::kAside);
    replay_conversions(ctx, options, result);
  }

 private:
  void replay_conversions(RoundContext& ctx, const AutopilotOptions& options,
                          const AutopilotResult& result) {
    Rng rng{seed_ + 1};
    std::size_t index = 0;
    for (const EpochRecord& rec : result.epochs) {
      if (!rec.conversion_executed) continue;
      if (rec.epoch == 0 || index >= result.conversions.size()) {
        ctx.ops.check(false, "conversion log is consistent");
        return;
      }
      const ModeAssignment& target = result.epochs[rec.epoch - 1].decision.target;
      const CompiledMode from =
          timed_compile(ctx, controller_, rec.assignment, kK);
      const CompiledMode to = timed_compile(ctx, controller_, target, kK);
      const PairList pairs = pairs_of(epoch_flows_[rec.epoch]);
      ConversionExecOptions exec = options.exec;
      exec.seed = options.exec.seed + index;
      auto span = ctx.tracer.span("conv_exec.execute");
      const ExecutionReport replay =
          ConversionExecutor{controller_, exec}.execute_under_storm(
              from, to, pairs, FailureSchedule{}, ConversionFaults{},
              rec.start_s);
      ctx.samples.convert_ms.push_back(span.close() * 1e3);
      {
        auto check = ctx.tracer.span("check.conversion", SpanKind::kAside);
        Digest mine;
        Digest loops;
        digest_report(mine, replay);
        digest_report(loops, result.conversions[index]);
        ctx.ops.check(mine.hex() == loops.hex(),
                      "conversion replay equals the loop's execution");
        ctx.ops.check(conversion_contract_holds(controller_, replay, kCalm),
                      "conversion: terminal state is the last checkpoint");
        ctx.digest.add(mine.hex());
      }
      for (std::uint32_t d = 0; d < kDrillsPerConversion; ++d) {
        failure_drill(ctx, controller_, target, kK, pairs, rng);
      }
      ++index;
    }
  }

  std::uint64_t seed_;
  Controller controller_;
  flattree::Workload flows_;
  std::vector<flattree::Workload> epoch_flows_;
  AutopilotOptions options_;
};

}  // namespace

std::unique_ptr<Workload> make_closed_loop(std::uint64_t seed,
                                           const obs::ObsSink& sink) {
  return std::make_unique<ClosedLoopWorkload>(seed, sink);
}

}  // namespace perfbench
