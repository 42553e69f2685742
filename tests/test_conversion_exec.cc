// Staged conversion execution: two-phase epoch protocol, lossy-channel
// retries, rollback, transient invariants, and the simulator drivers.
//
// The chaos battery is the load-bearing gate: a seeded adversary drops
// control messages, kills switches mid-conversion and fails OCS partitions,
// and every trial must land in exactly one of two terminal states — fully
// converted or fully rolled back — with zero blackhole/loop violations for
// the staged protocol.
#include "control/conversion_exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.h"
#include "net/failures.h"
#include "report_fingerprint.h"
#include "routing/path.h"
#include "sim/packet.h"
#include "traffic/patterns.h"

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
  options.count_rules = false;  // rule-state analysis is irrelevant here
  return Controller{FlatTree{p}, options};
}

std::vector<std::pair<NodeId, NodeId>> tracked_pairs(const Graph& graph,
                                                     std::size_t stride = 3) {
  const std::vector<NodeId> servers = graph.servers();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < servers.size(); i += stride) {
    pairs.emplace_back(servers[i],
                       servers[(i + servers.size() / 2) % servers.size()]);
  }
  return pairs;
}

std::size_t count_violations(const ExecutionReport& report, ViolationKind k) {
  return static_cast<std::size_t>(
      std::count_if(report.violations.begin(), report.violations.end(),
                    [k](const TransientViolation& v) { return v.kind == k; }));
}

TEST(ChannelOptions, ValidateRejectsBadFields) {
  ControlChannelOptions ch;
  EXPECT_NO_THROW(ch.validate());
  ch.drop_probability = 1.0;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch.drop_probability = -0.1;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.delay_s = -1e-9;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.timeout_s = 0.0;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.backoff = 0.5;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.max_attempts = 0;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
}

TEST(ConversionExec, ZeroLossStagedConverges) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  const ExecutionReport report = exec.execute(from, to, pairs);

  EXPECT_EQ(report.outcome, ConversionOutcome::kConverted);
  EXPECT_TRUE(report.staged);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.messages_dropped, 0u);
  EXPECT_EQ(report.steps_failed, 0u);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.total_blackhole_s, 0.0);
  EXPECT_GT(report.finish_s, report.start_s);
  ASSERT_GE(report.timeline.size(), 3u);

  // Terminal state: the incoming mode's graph and routes, epoch flipped.
  const TimelinePoint& last = report.timeline.back();
  EXPECT_EQ(last.epoch, 1u);
  EXPECT_EQ(link_multiset(*last.graph), link_multiset(to.graph()));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(last.routes[i],
              to.paths().server_paths(pairs[i].first, pairs[i].second));
  }
  // Make-before-break: every intermediate state keeps every pair routed.
  for (const TimelinePoint& pt : report.timeline) {
    for (const std::vector<Path>& rs : pt.routes) {
      ASSERT_FALSE(rs.empty());
      bool any_valid = false;
      for (const Path& path : rs) any_valid |= is_valid_path(*pt.graph, path);
      EXPECT_TRUE(any_valid);
    }
  }
}

TEST(ConversionExec, AtomicSwapHasBlackholeWindowStagedDoesNot) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());

  ConversionExecOptions staged_opts;
  ConversionExecOptions atomic_opts;
  atomic_opts.staged = false;
  const ExecutionReport staged =
      ConversionExecutor{ctl, staged_opts}.execute(from, to, pairs);
  const ExecutionReport atomic =
      ConversionExecutor{ctl, atomic_opts}.execute(from, to, pairs);

  EXPECT_EQ(staged.total_blackhole_s, 0.0);
  EXPECT_GT(atomic.total_blackhole_s, 0.0);
  EXPECT_GT(atomic.max_pair_blackhole_s, 0.0);
  EXPECT_GT(count_violations(atomic, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(atomic.outcome, ConversionOutcome::kConverted);
  // Both converge to the same terminal graph.
  EXPECT_EQ(link_multiset(*atomic.timeline.back().graph),
            link_multiset(to.graph()));
}

TEST(ConversionExec, StagedBeatsAtomicBlackholeAtTenPercentLoss) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  double staged_total = 0.0;
  double atomic_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ConversionExecOptions opts;
    opts.channel.drop_probability = 0.10;
    opts.channel.max_attempts = 8;  // loss alone should not force rollback
    opts.seed = seed;
    const ExecutionReport staged =
        ConversionExecutor{ctl, opts}.execute(from, to, pairs);
    opts.staged = false;
    const ExecutionReport atomic =
        ConversionExecutor{ctl, opts}.execute(from, to, pairs);
    staged_total += staged.total_blackhole_s;
    atomic_total += atomic.total_blackhole_s;
    EXPECT_EQ(staged.total_blackhole_s, 0.0) << "seed " << seed;
  }
  EXPECT_LT(staged_total, atomic_total);
}

TEST(ConversionExec, DeadSwitchRollsBackToExactFromState) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  // Kill a switch the incoming mode's routes depend on: its new-epoch rule
  // install can never ack, so phase A must fail and roll back.
  const Path to_path =
      to.paths().server_paths(pairs[0].first, pairs[0].second).front();
  ConversionFaults faults;
  faults.dead_switches = {to_path[to_path.size() / 2]};
  ASSERT_TRUE(is_switch(from.graph().node(faults.dead_switches[0]).role));
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  const ExecutionReport report = exec.execute(from, to, pairs, faults);

  EXPECT_EQ(report.outcome, ConversionOutcome::kRolledBack);
  EXPECT_GT(report.steps_failed, 0u);
  const TimelinePoint& last = report.timeline.back();
  EXPECT_EQ(last.epoch, 0u);
  EXPECT_EQ(link_multiset(*last.graph), link_multiset(from.graph()));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(last.routes[i],
              from.paths().server_paths(pairs[i].first, pairs[i].second));
  }
  // Staged rollback never black-holes or loops a pair either.
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kLoop), 0u);
}

TEST(ConversionExec, OcsPartitionFailureRollsBack) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionFaults faults;
  faults.fail_ocs_partitions = {1};  // second pass dies mid-conversion
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  const ExecutionReport report = exec.execute(from, to, pairs, faults);

  EXPECT_EQ(report.outcome, ConversionOutcome::kRolledBack);
  EXPECT_EQ(link_multiset(*report.timeline.back().graph),
            link_multiset(from.graph()));
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kLoop), 0u);
  // The first partition applied and was reverted: at least two OCS steps.
  const auto ocs_steps = std::count_if(
      report.steps.begin(), report.steps.end(),
      [](const StepRecord& s) { return s.kind == StepKind::kOcs; });
  EXPECT_GE(ocs_steps, 2);
}

// The headline gate: a seeded adversary (control-channel loss + dead
// switches + OCS partition failures) across many trials; every staged trial
// must terminate in exactly one of the two sanctioned states with zero
// blackhole/loop violations.
TEST(ConversionExec, ChaosSeededAdversary) {
  const Controller ctl = testbed_controller();
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(clos.graph());
  const auto aggs = clos.graph().nodes_with_role(NodeRole::kAgg);
  const auto edges = clos.graph().nodes_with_role(NodeRole::kEdge);

  std::size_t converted = 0;
  std::size_t rolled_back = 0;
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    Rng adversary{0x9d2c5680u + trial};
    ConversionExecOptions opts;
    opts.seed = trial + 1;
    opts.channel.drop_probability = 0.05 + 0.25 * adversary.next_double();
    opts.channel.max_attempts = 3 + static_cast<std::uint32_t>(
                                        adversary.next_double() * 4);
    opts.ocs_partitions = 1 + static_cast<std::uint32_t>(
                                  adversary.next_double() * 6);
    ConversionFaults faults;
    if (adversary.next_double() < 0.4) {
      faults.dead_switches.push_back(
          aggs[static_cast<std::size_t>(adversary.next_double() *
                                        static_cast<double>(aggs.size()))]);
    }
    if (adversary.next_double() < 0.3) {
      faults.dead_switches.push_back(
          edges[static_cast<std::size_t>(adversary.next_double() *
                                         static_cast<double>(edges.size()))]);
    }
    if (adversary.next_double() < 0.4) {
      faults.fail_ocs_partitions.push_back(static_cast<std::uint32_t>(
          adversary.next_double() * opts.ocs_partitions));
    }
    const bool forward = adversary.next_double() < 0.5;
    const CompiledMode& from = forward ? clos : global;
    const CompiledMode& to = forward ? global : clos;

    const ConversionExecutor exec{ctl, opts};
    const ExecutionReport report = exec.execute(from, to, pairs, faults);

    // Exactly one of two terminal states, bit-for-bit.
    const CompiledMode& terminal =
        report.outcome == ConversionOutcome::kConverted ? to : from;
    const TimelinePoint& last = report.timeline.back();
    EXPECT_EQ(link_multiset(*last.graph), link_multiset(terminal.graph()))
        << "trial " << trial;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(last.routes[i], terminal.paths().server_paths(
                                    pairs[i].first, pairs[i].second))
          << "trial " << trial << " pair " << i;
    }
    // The staged protocol never black-holes, loops, or partitions.
    EXPECT_EQ(report.violations.size(), 0u) << "trial " << trial;
    EXPECT_EQ(report.total_blackhole_s, 0.0) << "trial " << trial;
    (report.outcome == ConversionOutcome::kConverted ? converted
                                                     : rolled_back)++;
  }
  // The adversary is tuned so both terminal states actually occur.
  EXPECT_GT(converted, 0u);
  EXPECT_GT(rolled_back, 0u);
}

TEST(ConversionExec, SameSeedSameReport) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kLocal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.channel.drop_probability = 0.15;
  opts.seed = 42;
  const ConversionExecutor exec{ctl, opts};
  const ExecutionReport a = exec.execute(from, to, pairs);
  const ExecutionReport b = exec.execute(from, to, pairs);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.finish_s, b.finish_s);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.rules_added, b.rules_added);
  EXPECT_EQ(a.rules_deleted, b.rules_deleted);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].kind, b.steps[i].kind);
    EXPECT_EQ(a.steps[i].attempts, b.steps[i].attempts);
    EXPECT_EQ(a.steps[i].finish_s, b.steps[i].finish_s);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t k = 0; k < a.timeline.size(); ++k) {
    EXPECT_EQ(a.timeline[k].t, b.timeline[k].t);
    EXPECT_EQ(a.timeline[k].routes, b.timeline[k].routes);
  }
}

TEST(ConversionExec, DelayModelValidationPropagates) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.count_rules = false;
  options.delay.rule_add_s = -1.0;
  const Controller ctl{FlatTree{p}, options};
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  EXPECT_THROW((void)exec.execute(from, to, pairs), std::invalid_argument);
}

TEST(ConversionExec, RejectsBadArguments) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.channel.drop_probability = 1.5;
  EXPECT_THROW(
      (void)ConversionExecutor(ctl, opts).execute(from, to, pairs),
      std::invalid_argument);
  ConversionFaults faults;
  faults.dead_switches = {from.graph().servers().front()};  // not a switch
  EXPECT_THROW((void)ConversionExecutor(ctl, ConversionExecOptions{})
                   .execute(from, to, pairs, faults),
               std::invalid_argument);
  EXPECT_THROW((void)ConversionExecutor(ctl, ConversionExecOptions{})
                   .execute(from, to, pairs, ConversionFaults{}, -1.0),
               std::invalid_argument);
  // Bad failover times would run simulated time backwards or fire the
  // takeover at once.
  for (double takeover : {-0.1, std::nan("")}) {
    ConversionExecOptions bad_takeover;
    bad_takeover.failover_takeover_s = takeover;
    EXPECT_THROW(
        (void)ConversionExecutor(ctl, bad_takeover).execute(from, to, pairs),
        std::invalid_argument);
  }
  ConversionFaults nan_kill;
  nan_kill.kill_primary_at_s = std::nan("");
  EXPECT_THROW((void)ConversionExecutor(ctl, ConversionExecOptions{})
                   .execute(from, to, pairs, nan_kill),
               std::invalid_argument);
}

// -- report fingerprint ------------------------------------------------------

// The executor's full report, pinned over {atomic, staged, staged +
// checkpoints} x {calm, link storm} x {no fault, dead switch, failed OCS
// partition, primary kill, flat-controller Pod partition, Pod-local
// authority Pod partition} x {live re-planning on, off}. Combinations the
// executor rejects (control partitions under the atomic baseline) pin the
// rejection itself. On a mismatch the test prints every case's digest so the
// table can be compared line by line.
TEST(ConversionExec, ReportFingerprintMatrix) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kLocal);
  const auto pairs = tracked_pairs(from.graph());

  ConversionExecOptions base;
  base.channel.drop_probability = 0.05;
  base.seed = 7;
  // Storm victims: fabric links the origin mode's routes actually cross.
  const auto route_link = [&](std::size_t pair, std::size_t hop) {
    const Path path =
        from.paths().server_paths(pairs[pair].first, pairs[pair].second)
            .front();
    for (std::uint32_t i = 0; i < from.graph().link_count(); ++i) {
      const Link& l = from.graph().link(LinkId{i});
      if ((l.a == path[hop] && l.b == path[hop + 1]) ||
          (l.a == path[hop + 1] && l.b == path[hop])) {
        return LinkId{i};
      }
    }
    ADD_FAILURE() << "no link between consecutive route hops";
    return LinkId{0};
  };
  const LinkId victim = route_link(0, 1);
  const LinkId second = route_link(2, 2);
  const std::vector<Path> to_paths =
      to.paths().server_paths(pairs[1].first, pairs[1].second);
  ASSERT_FALSE(to_paths.empty());
  const NodeId dead_switch = to_paths.front()[to_paths.front().size() / 2];

  const char* const protocols[] = {"atomic", "staged", "checkpoints"};
  const char* const storms[] = {"calm", "storm"};
  const char* const fault_names[] = {"none",      "dead_switch", "ocs_fail",
                                     "kill",      "partition",   "pod_local"};
  const std::vector<std::uint64_t> expected = {
    0xc42bfc3a43840f91ULL,  // atomic calm none no_replan
    0xc42bfc3a43840f91ULL,  // atomic calm none replan
    0x8d3d07b5ef5ebbf1ULL,  // atomic calm dead_switch no_replan
    0x8d3d07b5ef5ebbf1ULL,  // atomic calm dead_switch replan
    0x7c112a3e771ecfc8ULL,  // atomic calm ocs_fail no_replan
    0x7c112a3e771ecfc8ULL,  // atomic calm ocs_fail replan
    0xc2ba36b61fc13445ULL,  // atomic calm kill no_replan
    0xc2ba36b61fc13445ULL,  // atomic calm kill replan
    0x000000007e7ec7edULL,  // atomic calm partition no_replan
    0x000000007e7ec7edULL,  // atomic calm partition replan
    0x000000007e7ec7edULL,  // atomic calm pod_local no_replan
    0x000000007e7ec7edULL,  // atomic calm pod_local replan
    0x1c29e6a978c19adeULL,  // atomic storm none no_replan
    0x1c29e6a978c19adeULL,  // atomic storm none replan
    0xf8aeee7720189e28ULL,  // atomic storm dead_switch no_replan
    0xf8aeee7720189e28ULL,  // atomic storm dead_switch replan
    0xf6897f922cffc58cULL,  // atomic storm ocs_fail no_replan
    0xf6897f922cffc58cULL,  // atomic storm ocs_fail replan
    0x539e01a5f604f0e7ULL,  // atomic storm kill no_replan
    0x539e01a5f604f0e7ULL,  // atomic storm kill replan
    0x000000007e7ec7edULL,  // atomic storm partition no_replan
    0x000000007e7ec7edULL,  // atomic storm partition replan
    0x000000007e7ec7edULL,  // atomic storm pod_local no_replan
    0x000000007e7ec7edULL,  // atomic storm pod_local replan
    0x36635b0e9b109949ULL,  // staged calm none no_replan
    0x36635b0e9b109949ULL,  // staged calm none replan
    0x32665e6a6f7772eaULL,  // staged calm dead_switch no_replan
    0x32665e6a6f7772eaULL,  // staged calm dead_switch replan
    0x9a78a7efabf8d14cULL,  // staged calm ocs_fail no_replan
    0x9a78a7efabf8d14cULL,  // staged calm ocs_fail replan
    0x04744f3c58732726ULL,  // staged calm kill no_replan
    0x04744f3c58732726ULL,  // staged calm kill replan
    0x95058f8ae1a5016bULL,  // staged calm partition no_replan
    0x95058f8ae1a5016bULL,  // staged calm partition replan
    0xfea57a9639829e4cULL,  // staged calm pod_local no_replan
    0xfea57a9639829e4cULL,  // staged calm pod_local replan
    0x1d69b2beef544b05ULL,  // staged storm none no_replan
    0xcf4917558c1e57feULL,  // staged storm none replan
    0x82c4ca5273240127ULL,  // staged storm dead_switch no_replan
    0x0f3d8e77a5df446dULL,  // staged storm dead_switch replan
    0x2a836dea82cf785cULL,  // staged storm ocs_fail no_replan
    0xac6b34e072bee300ULL,  // staged storm ocs_fail replan
    0x07433cf1d1048420ULL,  // staged storm kill no_replan
    0x825b56a5327233c3ULL,  // staged storm kill replan
    0xd926ce03c6891c78ULL,  // staged storm partition no_replan
    0x91ab726e97c692aaULL,  // staged storm partition replan
    0xa39affda269e0482ULL,  // staged storm pod_local no_replan
    0x5c313df2087cdc59ULL,  // staged storm pod_local replan
    0xd0acd442c8a655baULL,  // checkpoints calm none no_replan
    0xd0acd442c8a655baULL,  // checkpoints calm none replan
    0xbd7efae4264e6938ULL,  // checkpoints calm dead_switch no_replan
    0xbd7efae4264e6938ULL,  // checkpoints calm dead_switch replan
    0x8ca6c05b5956eeeaULL,  // checkpoints calm ocs_fail no_replan
    0x8ca6c05b5956eeeaULL,  // checkpoints calm ocs_fail replan
    0x22fde029dcb968ddULL,  // checkpoints calm kill no_replan
    0x22fde029dcb968ddULL,  // checkpoints calm kill replan
    0x1cd83d740b28897cULL,  // checkpoints calm partition no_replan
    0x1cd83d740b28897cULL,  // checkpoints calm partition replan
    0x43075c21942261b8ULL,  // checkpoints calm pod_local no_replan
    0x43075c21942261b8ULL,  // checkpoints calm pod_local replan
    0xb39eaae73ba7c02dULL,  // checkpoints storm none no_replan
    0xdbe2a7e0efa9ff83ULL,  // checkpoints storm none replan
    0x7f9dafd90a4a2106ULL,  // checkpoints storm dead_switch no_replan
    0x9097da13e67340ffULL,  // checkpoints storm dead_switch replan
    0x47790fbfc0ced2d3ULL,  // checkpoints storm ocs_fail no_replan
    0xd2c0ec88bed8ad2cULL,  // checkpoints storm ocs_fail replan
    0xaa58d9af02d3c729ULL,  // checkpoints storm kill no_replan
    0x6fa0c6e7b79ac428ULL,  // checkpoints storm kill replan
    0x42bfe6b2819fdbd0ULL,  // checkpoints storm partition no_replan
    0xc8adda199565b79bULL,  // checkpoints storm partition replan
    0x6a3f56461909bd89ULL,  // checkpoints storm pod_local no_replan
    0x2e17115fbee32e98ULL,  // checkpoints storm pod_local replan
  };

  std::vector<std::uint64_t> got;
  std::string table;
  for (int proto = 0; proto < 3; ++proto) {
    ConversionExecOptions proto_opts = base;
    proto_opts.staged = proto != 0;
    proto_opts.stage_checkpoints = proto == 2;
    // Storm and fault times are fractions of the protocol's own calm run.
    const double T = ConversionExecutor{ctl, proto_opts}
                         .execute(from, to, pairs)
                         .finish_s;
    FailureSchedule link_storm;
    link_storm.fail_at(0.05 * T, FailureSet{{victim}, {}});
    link_storm.recover_at(0.3 * T, FailureSet{{victim}, {}});
    link_storm.fail_at(0.45 * T, FailureSet{{second}, {}});
    link_storm.recover_at(0.8 * T, FailureSet{{second}, {}});
    for (int st = 0; st < 2; ++st) {
      for (int fault = 0; fault < 6; ++fault) {
        for (int replan = 0; replan < 2; ++replan) {
          ConversionExecOptions opts = proto_opts;
          opts.live_replanning = replan == 1;
          ConversionFaults faults;
          switch (fault) {
            case 1: faults.dead_switches = {dead_switch}; break;
            // The atomic baseline runs a single OCS pass.
            case 2: faults.fail_ocs_partitions = {proto == 0 ? 0u : 2u}; break;
            case 3: faults.kill_primary_at_s = 0.4 * T; break;
            case 4:
            case 5:
              faults.partitions.push_back(
                  ControlPartition{PodId{1}, 0.3 * T, -1.0});
              opts.pod_local_authority = fault == 5;
              break;
            default: break;
          }
          std::uint64_t digest = 0;
          try {
            digest = fingerprint(
                ConversionExecutor{ctl, opts}.execute_under_storm(
                    from, to, pairs, st == 1 ? link_storm : FailureSchedule{},
                    faults));
          } catch (const std::invalid_argument&) {
            digest = 0x7e7ec7ed;  // rejected combination
          }
          got.push_back(digest);
          char line[160];
          std::snprintf(line, sizeof line, "    0x%016llxULL,  // %s %s %s %s\n",
                        static_cast<unsigned long long>(digest),
                        protocols[proto], storms[st], fault_names[fault],
                        replan == 1 ? "replan" : "no_replan");
          table += line;
        }
      }
    }
  }
  EXPECT_EQ(got, expected) << "report digests:\n" << table;
}

// -- simulator drivers --------------------------------------------------------

TEST(ConversionDrive, FluidRunsThroughStagedConversion) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto servers = from.graph().servers();
  Rng rng{7};
  Workload flows = permutation_traffic(servers.size(), rng);
  for (Flow& f : flows) f.bytes = 10e6;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Flow& f : flows) {
    pairs.emplace_back(NodeId{f.src}, NodeId{f.dst});
  }
  ConversionExecOptions opts;
  opts.channel.drop_probability = 0.05;
  const ExecutionReport report =
      ConversionExecutor{ctl, opts}.execute(from, to, pairs);
  ASSERT_EQ(report.outcome, ConversionOutcome::kConverted);

  const ConversionDrive drive = make_conversion_drive(report);
  // The union graph covers every timeline state; every emitted event maps
  // to a timeline point.
  EXPECT_GE(drive.base->link_count(), from.graph().link_count());
  EXPECT_EQ(drive.schedule.events().size(), drive.refresh_point.size());
  for (std::size_t pt : drive.refresh_point) {
    EXPECT_LT(pt, report.timeline.size());
  }

  ScheduleRunStats stats;
  const std::vector<FluidFlowResult> results =
      run_fluid_with_conversion(report, flows, FluidOptions{}, &stats);
  ASSERT_EQ(results.size(), flows.size());
  for (const FluidFlowResult& r : results) {
    EXPECT_TRUE(r.completed);
  }
  // The staged protocol keeps every pair routed: no lookup ever comes back
  // empty during the conversion.
  EXPECT_EQ(stats.black_holed, 0u);
  EXPECT_GT(stats.refreshes, 0u);
}

TEST(ConversionDrive, PacketSimRunsThroughStagedConversion) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto servers = from.graph().servers();
  Rng rng{11};
  Workload flows = permutation_traffic(servers.size(), rng);
  flows.resize(8);  // a handful of flows keeps the packet run quick
  for (Flow& f : flows) f.bytes = 1e6;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Flow& f : flows) {
    pairs.emplace_back(NodeId{f.src}, NodeId{f.dst});
  }
  const ExecutionReport report =
      ConversionExecutor{ctl, ConversionExecOptions{}}.execute(
          from, to, pairs);
  ASSERT_EQ(report.outcome, ConversionOutcome::kConverted);

  PacketSim sim;
  sim.set_network(*report.timeline.front().graph);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto paths = conversion_paths_for(report, flows[i], 0);
    ASSERT_FALSE(paths.empty());
    sim.add_flow(flows[i].src, flows[i].dst, flows[i].bytes,
                 flows[i].start_s, std::move(paths));
  }
  const double horizon = report.finish_s + 5.0;
  drive_packet_sim(sim, report, flows, horizon);
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    EXPECT_TRUE(sim.flow_completed(i)) << "flow " << i;
    EXPECT_LE(sim.flow_finish_time(i), horizon);
  }
}

}  // namespace
}  // namespace flattree
