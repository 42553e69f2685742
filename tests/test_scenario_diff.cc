// Differential pin: scenarios/failure_recovery_clos.json describes exactly
// the Clos-mode cell of bench_failure_recovery (same topology, permutation
// workload, core-column schedule, repair pipeline), so run_scenario must
// reproduce that bench's numbers *bit for bit* — baseline and failed FCTs,
// repair lag, eviction counts, schedule counters. This is what licenses the
// DSL as a replacement for hand-coded bench pipelines: a scenario file is
// not an approximation of the experiment, it IS the experiment.
//
// The left-hand side below (bench_cell) inlines the per-mode cell of
// bench/bench_failure_recovery.cc verbatim; the right-hand side compiles and
// runs the scenario file — as written for Clos, and switched to a uniform
// flat_tree topology for the local and global cells. Any divergence — a reordered random
// draw, a different default — fails with exact values on both sides. Both
// sides summarize FCTs through the one flattree::percentile.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "bench/util.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "scenario/runner.h"
#include "sim/fluid.h"
#include "traffic/patterns.h"

namespace flattree::scenario {
namespace {

PathProvider mode_provider(CompiledMode& mode) {
  return [&mode](NodeId src, NodeId dst, std::uint32_t) {
    return mode.paths().server_paths(src, dst);
  };
}

double extra(const ScenarioResult& r, const std::string& key) {
  for (const auto& [k, v] : r.extras) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "scenario result has no extra \"" << key << "\"";
  return std::nan("");
}

// Everything the left-hand side of a differential case compares.
struct BenchCell {
  bench::RunStats base;
  bench::RunStats failed;
  RepairPlan plan;
  ScheduleRunStats sched;
};

// ---- left: bench_failure_recovery's per-mode cell, inlined ----
BenchCell bench_cell(PodMode mode) {
  const ClosParams clos{8, 4, 4, 4, 8, 4, 16, 8};  // 256 servers, 2:1 edge
  FlatTreeParams params;
  params.clos = clos;
  params.six_port_per_column = 2;
  params.four_port_per_column = 2;

  ControllerOptions opts;
  opts.count_rules = false;
  opts.delay.controllers = 64;
  const Controller controller{FlatTree{params}, opts};

  Rng traffic_rng{17};
  Workload flows = permutation_traffic(clos.total_servers(), traffic_rng);
  for (Flow& f : flows) f.bytes = 200e6;

  CompiledMode live = controller.compile_uniform(mode);
  const std::uint32_t column_width = clos.core_connectors_per_edge();
  const FailureSet columns =
      core_column_failure(live.graph(), 0, 3 * column_width);

  BenchCell cell;
  FluidOptions fluid_opts;
  FluidSimulator baseline{live.graph(), mode_provider(live), fluid_opts};
  cell.base = bench::summarize(baseline.run(flows));

  cell.plan = controller.plan_repair(live, columns, RepairOptions{});

  CompiledMode pre = controller.compile_uniform(mode);
  const Graph sim_graph = graph_union(pre.graph(), *cell.plan.graph);
  FluidSimulator sim{sim_graph, mode_provider(pre), fluid_opts};
  FailureSchedule schedule;
  schedule.fail_at(0.05, columns);
  schedule.recover_at(60.0, columns);
  const RoutingRefresh refresh = [&](const Graph&) -> PathProvider {
    return mode_provider(live);
  };
  cell.failed = bench::summarize(sim.run_with_schedule(
      flows, schedule, cell.plan.total_s(), refresh, &cell.sched));
  return cell;
}

TEST(ScenarioDiff, FailureRecoveryClosCellIsBitIdentical) {
  const BenchCell cell = bench_cell(PodMode::kClos);
  const bench::RunStats& base = cell.base;
  const bench::RunStats& failed = cell.failed;
  const RepairPlan& plan = cell.plan;
  const ScheduleRunStats& sched = cell.sched;

  // ---- right: the scenario file, through the DSL pipeline ----
  const ScenarioResult result = run_scenario(
      compile_scenario_file(std::string{SCENARIO_DIR} +
                            "/failure_recovery_clos.json"));

  // Exact double equality throughout: the claim is bit-identity, not
  // tolerance. EXPECT_EQ on doubles compares with ==.
  EXPECT_EQ(result.aggregate.flows, failed.total);
  EXPECT_EQ(result.aggregate.completed, failed.completed);
  EXPECT_EQ(result.aggregate.worst_fct_s, failed.worst_fct);
  EXPECT_EQ(result.aggregate.p99_fct_s, failed.p99_fct);

  EXPECT_EQ(extra(result, "base_worst_fct_s"), base.worst_fct);
  EXPECT_EQ(extra(result, "base_p99_fct_s"), base.p99_fct);
  EXPECT_EQ(extra(result, "inflation"), failed.worst_fct / base.worst_fct);
  EXPECT_EQ(extra(result, "repair_lag_s"), plan.total_s());
  EXPECT_EQ(extra(result, "pairs_invalidated"),
            static_cast<double>(plan.pairs_invalidated));
  EXPECT_EQ(extra(result, "pairs_retained"),
            static_cast<double>(plan.pairs_retained));

  EXPECT_EQ(extra(result, "fail_events"), static_cast<double>(sched.fail_events));
  EXPECT_EQ(extra(result, "recover_events"),
            static_cast<double>(sched.recover_events));
  EXPECT_EQ(extra(result, "refreshes"), static_cast<double>(sched.refreshes));
  EXPECT_EQ(extra(result, "reroutes"), static_cast<double>(sched.reroutes));
  EXPECT_EQ(extra(result, "black_holed"),
            static_cast<double>(sched.black_holed));

  // Sanity on the left side itself: the schedule must actually have fired
  // (otherwise both sides would trivially agree on a failure-free run).
  EXPECT_EQ(sched.fail_events, 1u);
  EXPECT_EQ(sched.recover_events, 1u);
  EXPECT_GT(plan.pairs_invalidated, 0u);
  EXPECT_GT(failed.worst_fct, base.worst_fct);
}

// The same cell for the flattened modes: the Clos scenario file switched to
// a uniform flat_tree topology must reproduce the bench's local and global
// cells bit for bit. Global mode is where plan_repair rewires converters to
// rescue servers stranded on the dead cores, so the repaired graph differs
// from a plain degrade and the union graph carries real rescue circuits.
TEST(ScenarioDiff, FailureRecoveryFlatModeCellsAreBitIdentical) {
  for (const PodMode mode : {PodMode::kLocal, PodMode::kGlobal}) {
    SCOPED_TRACE(to_string(mode));
    const BenchCell cell = bench_cell(mode);

    Scenario spec = parse_scenario_file(std::string{SCENARIO_DIR} +
                                        "/failure_recovery_clos.json");
    spec.topology.kind = TopologyKind::kFlatTree;
    spec.topology.pod_modes = {mode};
    const ScenarioResult result = run_scenario(compile_scenario(spec));

    EXPECT_EQ(result.aggregate.flows, cell.failed.total);
    EXPECT_EQ(result.aggregate.completed, cell.failed.completed);
    EXPECT_EQ(result.aggregate.worst_fct_s, cell.failed.worst_fct);
    EXPECT_EQ(result.aggregate.p99_fct_s, cell.failed.p99_fct);

    EXPECT_EQ(extra(result, "base_worst_fct_s"), cell.base.worst_fct);
    EXPECT_EQ(extra(result, "base_p99_fct_s"), cell.base.p99_fct);
    EXPECT_EQ(extra(result, "inflation"),
              cell.failed.worst_fct / cell.base.worst_fct);
    EXPECT_EQ(extra(result, "repair_lag_s"), cell.plan.total_s());
    EXPECT_EQ(extra(result, "pairs_invalidated"),
              static_cast<double>(cell.plan.pairs_invalidated));
    EXPECT_EQ(extra(result, "pairs_retained"),
              static_cast<double>(cell.plan.pairs_retained));

    EXPECT_EQ(extra(result, "fail_events"),
              static_cast<double>(cell.sched.fail_events));
    EXPECT_EQ(extra(result, "recover_events"),
              static_cast<double>(cell.sched.recover_events));
    EXPECT_EQ(extra(result, "refreshes"),
              static_cast<double>(cell.sched.refreshes));
    EXPECT_EQ(extra(result, "reroutes"),
              static_cast<double>(cell.sched.reroutes));
    EXPECT_EQ(extra(result, "black_holed"),
              static_cast<double>(cell.sched.black_holed));

    EXPECT_EQ(cell.sched.fail_events, 1u);
    EXPECT_GT(cell.plan.pairs_invalidated, 0u);
    if (mode == PodMode::kGlobal) {
      EXPECT_TRUE(cell.plan.used_converter_rewire);
      EXPECT_GT(cell.plan.converters_changed, 0u);
    }
  }
}

// The scenario's declared topology (fat_tree k=8, servers_per_edge=8,
// m=n=2) must land on the exact device budget the bench hard-codes; if the
// spec's defaults drift, the bit-identity test above would fail confusingly
// downstream, so pin the budget translation separately.
TEST(ScenarioDiff, ScenarioTopologyMatchesBenchBudget) {
  const CompiledScenario compiled = compile_scenario_file(
      std::string{SCENARIO_DIR} + "/failure_recovery_clos.json");
  const ClosParams bench_clos{8, 4, 4, 4, 8, 4, 16, 8};
  EXPECT_EQ(compiled.clos.total_servers(), bench_clos.total_servers());
  EXPECT_EQ(compiled.servers, 256u);
  EXPECT_EQ(compiled.flows.size(), 256u);
  EXPECT_EQ(compiled.spec.sim.controllers, 64u);
  EXPECT_FALSE(compiled.spec.sim.count_rules);
  EXPECT_EQ(compiled.spec.seed, 17u);
  EXPECT_EQ(compiled.spec.traffic[0].seed, 17u);  // explicit in the file
}

}  // namespace
}  // namespace flattree::scenario
