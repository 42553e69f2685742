// control: the control plane of a 256-server flat-tree (8 Pods, m = n = 2,
// k = 8), the fabric of bench_failure_recovery.
//
// One round: rule-counted compiles of the seven hybrid assignments along
// Controller::gradual_plan (Clos -> global); one staged, checkpointed
// Clos -> global conversion for a seeded permutation's pairs under a seeded
// link storm and 1% control-message loss; plan_repair for a seeded stream
// of single-link failures, starting on the live global mode the conversion
// leaves; and one fluid permutation run under a core-column failure
// schedule whose routing refresh serves the column repair's routes. KSP,
// rule analysis and per-step re-planning do nearly all the work; the fluid
// run is small.
//
// The failure stream holds no core-switch failures. plan_repair rescues
// servers stranded on a dead core by a converter rewire, which
// re-realizes the graph from the converter configs and removes only the
// current failure set, so every earlier failure on the same mode comes
// back into service. Until that is fixed in the library, a core failure
// in a cumulative stream would fail the repaired-routes check; the only
// core failure is the column repair's, on a fresh global mode.
#include <utility>

#include "core/flat_tree.h"
#include "net/failures.h"
#include "sim/fluid.h"
#include "traffic/patterns.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace flattree;

constexpr std::uint32_t kK = 8;
constexpr double kConvertAt = 0.1;     // conversion start (simulated s)
constexpr std::size_t kStormLinks = 12;
constexpr double kStormGap = 0.4;      // between storm failures
constexpr double kStormOutage = 2.0;   // each storm link's outage
// The failure stream: kLinksPerEpoch cumulative single-link failures per
// epoch. The first epoch runs on the conversion's live global mode; each
// later one on a fresh global mode, as after the failed links are
// replaced.
constexpr std::size_t kRepairEpochs = 8;
constexpr std::size_t kLinksPerEpoch = 16;
constexpr double kColumnFailAt = 0.05;
constexpr double kColumnRecoverAt = 60.0;

FlatTreeParams fabric() {
  FlatTreeParams params;
  params.clos = ClosParams{8, 4, 4, 4, 8, 4, 16, 8};  // 256 servers
  params.six_port_per_column = 2;
  params.four_port_per_column = 2;
  return params;
}

ControllerOptions controller_options(bool count_rules,
                                     const obs::ObsSink& sink) {
  ControllerOptions options;
  options.count_rules = count_rules;
  options.delay.controllers = 64;
  options.sink = sink;
  return options;
}

CompiledMode realize(RoundContext& ctx, const Controller& controller,
                     PodMode mode) {
  auto span = ctx.tracer.span("control.realize");
  return controller.compile_uniform(mode);
}

// The simulators' provider callbacks: each lookup is a child span of the
// fluid run, so fluid.run's self time excludes routing.
PathProvider timed_provider(Tracer& tracer, CompiledMode& mode) {
  return [&tracer, &mode](NodeId src, NodeId dst, std::uint32_t) {
    auto span = tracer.span("routing.ksp.lookup");
    return mode.paths().server_paths(src, dst);
  };
}

class ControlWorkload final : public Workload {
 public:
  ControlWorkload(std::uint64_t seed, const obs::ObsSink& sink)
      : seed_{seed},
        rules_{FlatTree{fabric()}, controller_options(true, sink)},
        live_{FlatTree{fabric()}, controller_options(false, sink)} {
    const FlatTreeParams params = fabric();
    const std::uint32_t pods = params.clos.pods;
    // The hybrid assignments: every stage but the last, which is uniform
    // global.
    stages_ = Controller::gradual_plan(
        ModeAssignment::uniform(pods, PodMode::kClos),
        ModeAssignment::uniform(pods, PodMode::kGlobal));
    stages_.pop_back();

    Rng rng{seed};
    flows_ = permutation_traffic(params.clos.total_servers(), rng);
    for (Flow& f : flows_) f.bytes = 200e6;
    pairs_ = pairs_of(flows_);

    // The storm: kStormLinks distinct fabric links the origin (Clos) routes
    // cross, failing staggered and each recovering kStormOutage later, all
    // inside the conversion window (round() checks that the conversion
    // outlasts the storm).
    CompiledMode origin = live_.compile_uniform(PodMode::kClos);
    origin.paths().precompute(pairs_);
    auto hops = route_hops(origin, pairs_);
    for (std::size_t i = 0; i < kStormLinks; ++i) {
      std::swap(hops[i], hops[i + rng.next_below(hops.size() - i)]);
      const LinkId link = link_of(origin.graph(), hops[i]);
      const double t = kConvertAt + kStormGap * static_cast<double>(i + 1);
      storm_.fail_at(t, FailureSet{{link}, {}});
      storm_.recover_at(t + kStormOutage, FailureSet{{link}, {}});
      storm_end_s_ = t + kStormOutage;
    }

    const Graph global = live_.tree().realize_uniform(PodMode::kGlobal);
    const auto cores = static_cast<std::uint32_t>(
        global.nodes_with_role(NodeRole::kCore).size());
    const std::uint32_t width = params.clos.core_connectors_per_edge();
    const std::uint32_t columns = cores / width;
    column_ = core_column_failure(
        global, width * static_cast<std::uint32_t>(rng.next_below(columns)),
        width);
  }

  void round(RoundContext& ctx) override {
    compile_stages(ctx);
    repair_stream(ctx, convert(ctx));
    fluid_run(ctx);
  }

 private:
  void compile_stages(RoundContext& ctx) {
    for (const ModeAssignment& stage : stages_) {
      const CompiledMode mode = timed_compile(ctx, rules_, stage, kK);
      ctx.digest.add(mode.total_rules());
      ctx.digest.add(mode.max_rules_per_switch());
      ctx.ops.check(mode.has_rule_counts() && mode.total_rules() > 0,
                    "compile: rule counts present");
    }
  }

  // Returns the live mode the conversion leaves: its target.
  CompiledMode convert(RoundContext& ctx) {
    const CompiledMode from = realize(ctx, live_, PodMode::kClos);
    CompiledMode to = realize(ctx, live_, PodMode::kGlobal);
    ConversionExecOptions options;
    options.stage_checkpoints = true;
    options.channel.drop_probability = 0.01;
    options.seed = seed_;
    options.sink = ctx.sink;
    auto span = ctx.tracer.span("conv_exec.execute");
    const ExecutionReport report =
        ConversionExecutor{live_, options}.execute_under_storm(
            from, to, pairs_, storm_, ConversionFaults{}, kConvertAt);
    ctx.samples.convert_ms.push_back(span.close() * 1e3);
    digest_report(ctx.digest, report);
    auto check = ctx.tracer.span("check.conversion", SpanKind::kAside);
    // The post-storm part of the contract only applies once the storm is
    // over, so the conversion must outlast it.
    ctx.ops.check(report.finish_s > storm_end_s_,
                  "conversion: finishes after the storm has recovered");
    ctx.ops.check(conversion_contract_holds(live_, report, storm_end_s_),
                  "conversion: terminal state is the last checkpoint");
    ctx.ops.check(report.terminal_configs == to.configs(),
                  "conversion: the live mode is global");
    return to;
  }

  void repair_stream(RoundContext& ctx, CompiledMode live_mode) {
    Rng rng{seed_ + 1};
    for (std::size_t epoch = 0; epoch < kRepairEpochs; ++epoch) {
      CompiledMode mode = epoch == 0 ? std::move(live_mode)
                                     : realize(ctx, live_, PodMode::kGlobal);
      {
        auto span = ctx.tracer.span("routing.ksp.precompute");
        mode.paths().precompute(pairs_, &ctx.pool);
      }
      std::vector<std::pair<NodeId, NodeId>> cut;
      for (std::size_t event = 0; event < kLinksPerEpoch; ++event) {
        FailureSet failure;
        {
          auto pick = ctx.tracer.span("input.pick_failure", SpanKind::kAside);
          const LinkId link = pick_route_link(mode, pairs_, rng);
          cut.push_back(hop_of(mode.graph(), link));
          failure.links.push_back(link);
        }
        const RepairPlan plan = timed_repair(ctx, live_, mode, failure);
        ctx.digest.add(static_cast<std::uint64_t>(plan.pairs_invalidated));
        ctx.digest.add(plan.rules_added);
        ctx.digest.add(plan.rules_deleted);
        ctx.digest.add(plan.total_s());
        auto check = ctx.tracer.span("check.repair", SpanKind::kAside);
        ctx.ops.check(repaired_paths_avoid(mode, pairs_, {}, cut),
                      "repair: repaired routes avoid every failed link");
      }
    }
  }

  void fluid_run(RoundContext& ctx) {
    CompiledMode pre = realize(ctx, live_, PodMode::kGlobal);
    CompiledMode repaired = realize(ctx, live_, PodMode::kGlobal);
    const RepairPlan plan = timed_repair(ctx, live_, repaired, column_);
    Graph sim_graph;
    {
      auto span = ctx.tracer.span("net.graph_union");
      sim_graph = graph_union(pre.graph(), *plan.graph);
    }
    FailureSchedule schedule;
    schedule.fail_at(kColumnFailAt, column_);
    schedule.recover_at(kColumnRecoverAt, column_);
    FluidOptions options;
    options.sink = ctx.sink;
    Tracer& tracer = ctx.tracer;
    const RoutingRefresh refresh = [&tracer,
                                    &repaired](const Graph&) -> PathProvider {
      auto span = tracer.span("routing.refresh");
      return timed_provider(tracer, repaired);
    };
    std::vector<FluidFlowResult> results;
    {
      auto span = ctx.tracer.span("fluid.run");
      FluidSimulator sim{sim_graph, timed_provider(tracer, pre), options};
      results = sim.run_with_schedule(flows_, schedule, plan.total_s(),
                                      refresh);
    }
    auto check = ctx.tracer.span("check.flows", SpanKind::kAside);
    std::uint64_t incomplete = 0;
    for (const FluidFlowResult& r : results) {
      if (!r.completed) ++incomplete;
      ctx.digest.add(r.finish_s);
    }
    ctx.ops.tally(flows_.size(), incomplete + (flows_.size() - results.size()),
                  "fluid flows completed");
    ctx.ops.check(repaired_paths_avoid(repaired, pairs_, column_.switches, {}),
                  "column repair: repaired routes avoid the dead cores");
  }

  std::uint64_t seed_;
  Controller rules_;  // rule counting on: the gradual compiles
  Controller live_;   // conversion, repairs and the fluid run
  std::vector<ModeAssignment> stages_;
  flattree::Workload flows_;
  PairList pairs_;
  FailureSchedule storm_;
  double storm_end_s_{0.0};
  FailureSet column_;
};

}  // namespace

std::unique_ptr<Workload> make_control(std::uint64_t seed,
                                       const obs::ObsSink& sink) {
  return std::make_unique<ControlWorkload>(seed, sink);
}

}  // namespace perfbench
