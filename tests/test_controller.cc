#include "control/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "net/failures.h"

namespace flattree {
namespace {

Controller testbed_controller(std::uint32_t k = 4) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.k_global = k;
  options.k_local = k;
  options.k_clos = k;
  return Controller{FlatTree{p}, options};
}

TEST(Controller, CompileProducesRealizedGraph) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kGlobal);
  EXPECT_EQ(mode.graph().count_role(NodeRole::kServer), 24u);
  EXPECT_TRUE(mode.graph().connected());
  EXPECT_EQ(mode.k(), 4u);
  EXPECT_EQ(mode.configs().size(), ctl.tree().converters().size());
}

TEST(Controller, RuleCountOrderingMatchesPaper) {
  // §5.3: per-switch rule maxima order global > local > clos (242/180/76).
  const Controller ctl = testbed_controller();
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const CompiledMode local = ctl.compile_uniform(PodMode::kLocal);
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  ASSERT_TRUE(global.has_rule_counts());
  EXPECT_GT(global.max_rules_per_switch(), local.max_rules_per_switch());
  EXPECT_GT(local.max_rules_per_switch(), clos.max_rules_per_switch());
  // Same order of magnitude as the testbed numbers.
  EXPECT_GT(global.max_rules_per_switch(), 100u);
  EXPECT_LT(global.max_rules_per_switch(), 1000u);
  EXPECT_LT(clos.max_rules_per_switch(), 200u);
}

TEST(Controller, ConversionCountsChangedConverters) {
  const Controller ctl = testbed_controller();
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const ConversionReport report = ctl.plan_conversion(clos, global);
  // Every converter changes configuration between Clos and global mode.
  EXPECT_EQ(report.converters_changed, ctl.tree().converters().size());
  EXPECT_GT(report.rules_deleted, 0u);
  EXPECT_GT(report.rules_added, 0u);
}

TEST(Controller, NullConversionIsFree) {
  const Controller ctl = testbed_controller();
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  const ConversionReport report = ctl.plan_conversion(clos, clos);
  EXPECT_EQ(report.converters_changed, 0u);
  EXPECT_DOUBLE_EQ(report.ocs_s, 0.0);
}

TEST(Controller, DelayBreakdownShape) {
  // Table 3 structure: one OCS term (160 ms) + delete + add, total ~1 s.
  const Controller ctl = testbed_controller();
  const CompiledMode local = ctl.compile_uniform(PodMode::kLocal);
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const ConversionReport report = ctl.plan_conversion(local, global);
  EXPECT_DOUBLE_EQ(report.ocs_s, 0.160);
  EXPECT_GT(report.delete_s, 0.05);
  EXPECT_GT(report.add_s, 0.05);
  EXPECT_GT(report.total_s(), 0.3);
  EXPECT_LT(report.total_s(), 3.0);
}

TEST(Controller, ConversionDelayProportionalToRules) {
  // Converting to Clos adds fewer rules than converting to global.
  const Controller ctl = testbed_controller();
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode local = ctl.compile_uniform(PodMode::kLocal);
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const ConversionReport to_clos = ctl.plan_conversion(global, clos);
  const ConversionReport to_global = ctl.plan_conversion(local, global);
  EXPECT_LT(to_clos.add_s, to_global.add_s);
  EXPECT_GT(to_clos.delete_s, to_global.delete_s * 0.9);
}

TEST(Controller, DistributedControllersSpeedUpRuleUpdates) {
  // §4.3: sharding the rule distribution across controllers divides the
  // update time but not the OCS reconfiguration pass.
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions sequential;
  sequential.k_global = sequential.k_local = sequential.k_clos = 4;
  ControllerOptions sharded = sequential;
  sharded.delay.controllers = 4;
  const Controller ctl1{FlatTree{p}, sequential};
  const Controller ctl4{FlatTree{p}, sharded};
  const CompiledMode clos = ctl1.compile_uniform(PodMode::kClos);
  const CompiledMode global = ctl1.compile_uniform(PodMode::kGlobal);
  const ConversionReport slow = ctl1.plan_conversion(clos, global);
  const ConversionReport fast = ctl4.plan_conversion(clos, global);
  EXPECT_NEAR(fast.delete_s, slow.delete_s / 4, 1e-9);
  EXPECT_NEAR(fast.add_s, slow.add_s / 4, 1e-9);
  EXPECT_DOUBLE_EQ(fast.ocs_s, slow.ocs_s);
  EXPECT_LT(fast.total_s(), slow.total_s());
}

TEST(Controller, HybridCompiles) {
  const Controller ctl = testbed_controller();
  ModeAssignment hybrid = ModeAssignment::uniform(4, PodMode::kClos);
  hybrid.pod_modes[0] = PodMode::kGlobal;
  hybrid.pod_modes[1] = PodMode::kGlobal;
  hybrid.pod_modes[2] = PodMode::kLocal;
  const CompiledMode mode = ctl.compile(hybrid, 4);
  EXPECT_TRUE(mode.graph().connected());
  // Zone structure: pod 3 (clos) keeps all servers on edges.
  const Graph& g = mode.graph();
  for (NodeId s : g.servers()) {
    if (g.node(s).pod.value() == 3) {
      EXPECT_EQ(g.node(g.attachment_switch(s)).role, NodeRole::kEdge);
    }
  }
}

TEST(Controller, KForModeHonorsOptions) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.k_global = 16;
  options.k_local = 8;
  options.k_clos = 4;
  const Controller ctl{FlatTree{p}, options};
  EXPECT_EQ(ctl.k_for(PodMode::kGlobal), 16u);
  EXPECT_EQ(ctl.k_for(PodMode::kLocal), 8u);
  EXPECT_EQ(ctl.k_for(PodMode::kClos), 4u);
}

TEST(Controller, DisableRuleCounting) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.count_rules = false;
  const Controller ctl{FlatTree{p}, options};
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  EXPECT_FALSE(mode.has_rule_counts());
}

// Warm every server pair so the repair below sees the full blast radius.
void warm_all_pairs(CompiledMode& mode) {
  const auto servers = mode.graph().servers();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (std::size_t j = i + 1; j < servers.size(); ++j) {
      (void)mode.paths().server_paths(servers[i], servers[j]);
    }
  }
}

TEST(Repair, SingleLinkRepairUpdatesFewerRulesThanRecompile) {
  const Controller ctl = testbed_controller();
  CompiledMode live = ctl.compile_uniform(PodMode::kGlobal);
  ASSERT_TRUE(live.has_rule_counts());
  const std::uint64_t full_rules = live.total_rules();
  warm_all_pairs(live);
  const std::size_t warm = live.paths().cached_pairs();

  // Fail one fabric link that some cached path actually uses: the first
  // switch-switch hop of a multi-hop cached path (paths from server_paths
  // are server - switch ... switch - server, so hop [1]-[2] is fabric).
  const Graph& g = live.graph();
  LinkId victim{};
  bool found = false;
  const auto servers = g.servers();
  for (std::size_t i = 1; i < servers.size() && !found; ++i) {
    for (const Path& path : live.paths().server_paths(servers[0], servers[i])) {
      if (path.size() < 4) continue;
      for (std::uint32_t l = 0; l < g.link_count(); ++l) {
        const Link& link = g.link(LinkId{l});
        if ((link.a == path[1] && link.b == path[2]) ||
            (link.b == path[1] && link.a == path[2])) {
          victim = LinkId{l};
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  ASSERT_TRUE(found);
  const std::size_t links_before = g.link_count();

  // plan_repair swaps the mode's graph; the old realization (and the `g`
  // reference) is dead beyond this point.
  const FailureSet failure{{victim}, {}};
  const RepairPlan plan = ctl.plan_repair(live, failure);

  // The incremental repair touched only the broken pairs...
  EXPECT_GT(plan.pairs_invalidated, 0u);
  EXPECT_GT(plan.pairs_retained, 0u);
  EXPECT_EQ(plan.pairs_invalidated + plan.pairs_retained, warm);
  EXPECT_GT(plan.rules_deleted, 0u);
  EXPECT_GT(plan.rules_added, 0u);
  // ...so it rewrites strictly fewer rules than recompiling the mode, which
  // deletes and reinstalls every rule in the network.
  EXPECT_LT(plan.rules_deleted + plan.rules_added, 2 * full_rules);
  EXPECT_LT(plan.rules_deleted, full_rules);
  // No circuits moved for a plain link failure.
  EXPECT_FALSE(plan.used_converter_rewire);
  EXPECT_EQ(plan.converters_changed, 0u);
  EXPECT_DOUBLE_EQ(plan.ocs_s, 0.0);
  EXPECT_GT(plan.total_s(), 0.0);

  // The mode now operates on the repaired topology: the link is gone and
  // re-solved paths route around it.
  EXPECT_EQ(&live.graph(), plan.graph.get());
  EXPECT_EQ(live.graph().link_count(), links_before - 1);
  for (std::size_t i = 1; i < servers.size(); ++i) {
    for (const Path& path : live.paths().server_paths(servers[0], servers[i])) {
      EXPECT_TRUE(is_valid_path(live.graph(), path));
    }
  }
}

TEST(Repair, ConverterRewireRescuesServersOnDeadCores) {
  const Controller ctl = testbed_controller();
  CompiledMode live = ctl.compile_uniform(PodMode::kGlobal);
  const Graph& g = live.graph();
  const auto cores = g.nodes_with_role(NodeRole::kCore);
  const FailureSet column =
      core_column_failure(g, 0, ctl.tree().clos().core_connectors_per_edge());
  ASSERT_FALSE(column.switches.empty());

  // Find a server broken out onto one of the dead cores.
  const auto converters = ctl.tree().converters();
  NodeId stranded = NodeId::invalid();
  for (std::size_t i = 0; i < converters.size(); ++i) {
    if (live.configs()[i] != ConverterConfig::kSide &&
        live.configs()[i] != ConverterConfig::kCross) {
      continue;
    }
    const NodeId core = cores[converters[i].core];
    if (std::find(column.switches.begin(), column.switches.end(), core) ==
        column.switches.end()) {
      continue;
    }
    stranded = g.servers()[converters[i].server];
    break;
  }
  ASSERT_TRUE(stranded.valid());
  EXPECT_EQ(g.node(g.attachment_switch(stranded)).role, NodeRole::kCore);
  const NodeId other = g.servers().front() == stranded ? g.servers()[1]
                                                       : g.servers().front();

  // Without the rewire the server stays cabled to the dead core.
  {
    CompiledMode frozen = ctl.compile_uniform(PodMode::kGlobal);
    RepairOptions no_rewire;
    no_rewire.allow_converter_rewire = false;
    const RepairPlan plan = ctl.plan_repair(frozen, column, no_rewire);
    EXPECT_FALSE(plan.used_converter_rewire);
    EXPECT_EQ(plan.converters_changed, 0u);
    EXPECT_DOUBLE_EQ(plan.ocs_s, 0.0);
    const Graph& repaired = *plan.graph;
    EXPECT_EQ(repaired.node(repaired.attachment_switch(stranded)).role,
              NodeRole::kCore);
    EXPECT_FALSE(servers_connected(repaired));
  }

  // With the rewire the converter pair flips to local, re-homing the
  // stranded servers onto their aggregation switches in one OCS pass.
  // (plan_repair swaps live's graph: `g` is dead beyond this point.)
  const RepairPlan plan = ctl.plan_repair(live, column);
  EXPECT_TRUE(plan.used_converter_rewire);
  EXPECT_GE(plan.converters_changed, 2u);
  EXPECT_EQ(plan.converters_changed % 2, 0u);  // side bundles flip pairwise
  EXPECT_DOUBLE_EQ(plan.ocs_s, 0.160);
  const Graph& repaired = live.graph();
  EXPECT_EQ(repaired.node(repaired.attachment_switch(stranded)).role,
            NodeRole::kAgg);
  EXPECT_TRUE(servers_connected(repaired));
  // Routes to the rescued server exist and are valid on the repaired graph.
  const auto paths = live.paths().server_paths(other, stranded);
  ASSERT_FALSE(paths.empty());
  for (const Path& path : paths) {
    EXPECT_TRUE(is_valid_path(repaired, path));
  }
}

// A converter-rewire repair re-realizes the circuits from scratch; links an
// earlier repair already took out of service must stay out.
TEST(Repair, ConverterRewireKeepsEarlierFailuresOut) {
  const Controller ctl = testbed_controller();
  CompiledMode live = ctl.compile_uniform(PodMode::kGlobal);
  const std::uint32_t connectors =
      ctl.tree().clos().core_connectors_per_edge();
  const FailureSet column = core_column_failure(live.graph(), 0, connectors);
  ASSERT_FALSE(column.switches.empty());

  // The circuits the column failure rewires to, from a dry run.
  CompiledMode probe = ctl.compile_uniform(PodMode::kGlobal);
  const Graph rewired =
      ctl.tree().realize(ctl.plan_repair(probe, column).configs);

  // First failure: a fabric link clear of the dead column that the rewired
  // circuits keep.
  const auto in_column = [&](NodeId n) {
    return std::find(column.switches.begin(), column.switches.end(), n) !=
           column.switches.end();
  };
  NodeId a = NodeId::invalid();
  NodeId b = NodeId::invalid();
  LinkId first{0};
  for (std::uint32_t i = 0; i < live.graph().link_count() && !a.valid(); ++i) {
    const Link& l = live.graph().link(LinkId{i});
    if (is_switch(live.graph().node(l.a).role) &&
        is_switch(live.graph().node(l.b).role) && !in_column(l.a) &&
        !in_column(l.b) && rewired.adjacent(l.a, l.b)) {
      a = l.a;
      b = l.b;
      first = LinkId{i};
    }
  }
  ASSERT_TRUE(a.valid());
  const RepairPlan link_plan =
      ctl.plan_repair(live, FailureSet{{first}, {}});
  EXPECT_FALSE(link_plan.used_converter_rewire);
  ASSERT_FALSE(live.graph().adjacent(a, b));

  // Second failure: the core column, which forces a converter rewire.
  const RepairPlan core_plan = ctl.plan_repair(
      live, core_column_failure(live.graph(), 0, connectors));
  EXPECT_TRUE(core_plan.used_converter_rewire);
  EXPECT_FALSE(live.graph().adjacent(a, b));
  const NodeId dst = live.graph().servers().front();
  for (const NodeId src : live.graph().servers()) {
    if (src == dst) continue;
    for (const Path& path : live.paths().server_paths(src, dst)) {
      EXPECT_TRUE(is_valid_path(live.graph(), path));
    }
  }
}

TEST(Repair, RepairCostScalesWithBlastRadius) {
  // A one-link failure must price cheaper than a whole dead core column on
  // the same warm cache — recovery latency tracks the blast radius.
  const Controller ctl = testbed_controller();

  CompiledMode small = ctl.compile_uniform(PodMode::kClos);
  warm_all_pairs(small);
  // One agg-core link.
  const Graph& g = small.graph();
  LinkId agg_core{};
  bool found = false;
  for (std::uint32_t l = 0; l < g.link_count() && !found; ++l) {
    const Link& link = g.link(LinkId{l});
    const auto ra = g.node(link.a).role;
    const auto rb = g.node(link.b).role;
    if ((ra == NodeRole::kAgg && rb == NodeRole::kCore) ||
        (ra == NodeRole::kCore && rb == NodeRole::kAgg)) {
      agg_core = LinkId{l};
      found = true;
    }
  }
  ASSERT_TRUE(found);
  const RepairPlan link_plan =
      ctl.plan_repair(small, FailureSet{{agg_core}, {}});

  CompiledMode big = ctl.compile_uniform(PodMode::kClos);
  warm_all_pairs(big);
  const FailureSet column = core_column_failure(
      big.graph(), 0, ctl.tree().clos().core_connectors_per_edge());
  const RepairPlan column_plan = ctl.plan_repair(big, column);

  EXPECT_LT(link_plan.pairs_invalidated, column_plan.pairs_invalidated);
  EXPECT_LE(link_plan.rules_deleted, column_plan.rules_deleted);
  EXPECT_LT(link_plan.total_s(), column_plan.total_s());
}

// -- ConversionDelayModel validation ------------------------------------------
// Regression: a negative (or NaN) per-operation timing silently priced
// negative conversion totals before validate() was called at the pricing
// sites. Both plan_conversion and plan_repair must reject bad models.

Controller controller_with_delay(ConversionDelayModel delay) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.delay = delay;
  return Controller{FlatTree{p}, options};
}

TEST(ConversionDelayModel, ValidateRejectsBadFields) {
  ConversionDelayModel good;
  EXPECT_NO_THROW(good.validate());

  ConversionDelayModel d;
  d.ocs_reconfigure_s = -0.1;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = ConversionDelayModel{};
  d.rule_delete_s = -1e-9;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = ConversionDelayModel{};
  d.rule_add_s = -0.5;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = ConversionDelayModel{};
  d.rule_add_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConversionDelayModel, PlanConversionRejectsNegativeTimings) {
  ConversionDelayModel bad;
  bad.rule_add_s = -0.001;
  const Controller ctl = controller_with_delay(bad);
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  EXPECT_THROW((void)ctl.plan_conversion(clos, global),
               std::invalid_argument);
}

TEST(ConversionDelayModel, PlanRepairRejectsNegativeTimings) {
  ConversionDelayModel bad;
  bad.ocs_reconfigure_s = -1.0;
  const Controller ctl = controller_with_delay(bad);
  CompiledMode live = ctl.compile_uniform(PodMode::kClos);
  // Any fabric link will do; validation fires before the plan is built.
  const Graph& g = live.graph();
  LinkId victim{};
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if (is_switch(g.node(l.a).role) && is_switch(g.node(l.b).role)) {
      victim = LinkId{i};
      break;
    }
  }
  EXPECT_THROW((void)ctl.plan_repair(live, FailureSet{{victim}, {}}),
               std::invalid_argument);
}

TEST(ConversionDelayModel, ZeroControllersPricesAsOne) {
  // The zero-guard lives in effective_controllers(): controllers == 0 must
  // price identically to controllers == 1, not divide by zero.
  ConversionDelayModel zero;
  zero.controllers = 0;
  ConversionDelayModel one;
  one.controllers = 1;
  EXPECT_DOUBLE_EQ(zero.effective_controllers(), 1.0);
  EXPECT_DOUBLE_EQ(one.effective_controllers(), 1.0);

  const Controller ctl_zero = controller_with_delay(zero);
  const Controller ctl_one = controller_with_delay(one);
  const auto price = [](const Controller& ctl) {
    const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
    const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
    return ctl.plan_conversion(clos, global).total_s();
  };
  EXPECT_DOUBLE_EQ(price(ctl_zero), price(ctl_one));
}

}  // namespace
}  // namespace flattree
