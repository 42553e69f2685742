#include "scenario/runner.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "control/autopilot/autopilot.h"
#include "control/conversion_exec.h"
#include "net/rng.h"
#include "net/stats.h"
#include "routing/ksp.h"
#include "sim/fluid.h"
#include "sim/packet.h"
#include "sim/sharded.h"
#include "topo/random_graph.h"
#include "traffic/hostile.h"
#include "traffic/patterns.h"
#include "traffic/traces.h"

namespace flattree::scenario {
namespace {

[[noreturn]] void fail(std::string_view file, const std::string& what) {
  throw ScenarioError(std::string{file} + ": " + what);
}

// ---- compile: topology ------------------------------------------------------

std::shared_ptr<const FlatTree> build_tree(const TopologySpec& topo,
                                           const ClosParams& clos,
                                           std::string_view file) {
  FlatTreeParams params = FlatTreeParams::defaults_for(clos);
  params.clos = clos;
  if (topo.m != TopologySpec::kAuto) params.six_port_per_column = topo.m;
  if (topo.n != TopologySpec::kAuto) params.four_port_per_column = topo.n;
  try {
    params.validate();
    return std::make_shared<FlatTree>(params);
  } catch (const std::exception& e) {
    fail(file, std::string{"topology rejected: "} + e.what());
  }
}

ModeAssignment assignment_from(const std::vector<PodMode>& modes,
                               std::uint32_t pods) {
  if (modes.size() == 1) return ModeAssignment::uniform(pods, modes[0]);
  return ModeAssignment{modes};
}

// ---- compile: traffic -------------------------------------------------------

TraceParams trace_preset(const std::string& profile) {
  if (profile == "hadoop1") return TraceParams::hadoop1();
  if (profile == "hadoop2") return TraceParams::hadoop2();
  if (profile == "web") return TraceParams::web();
  return TraceParams::cache();  // parse_scenario validated the enum
}

Workload generate_entry(const TrafficSpec& t, const CompiledScenario& c) {
  switch (t.pattern) {
    case TrafficPattern::kPermutation: {
      Rng rng{t.seed};
      Workload flows = permutation_traffic(c.servers, rng);
      for (Flow& f : flows) {
        f.bytes = t.bytes;
        f.start_s = t.start_s;
      }
      return flows;
    }
    case TrafficPattern::kIncast: {
      IncastParams p;
      p.num_servers = c.servers;
      p.servers_per_pod = c.servers_per_pod;
      p.groups = t.groups;
      p.fanin = t.fanin;
      p.requests = t.requests;
      p.period_s = t.period_s;
      p.mean_bytes = t.mean_bytes;
      p.alpha = t.alpha;
      p.max_bytes = t.max_bytes;
      p.pod_local = t.pod_local;
      p.start_s = t.start_s;
      p.seed = t.seed;
      return incast_traffic(p);
    }
    case TrafficPattern::kClass: {
      TenantClassParams p;
      p.num_servers = c.servers;
      p.servers_per_rack = c.servers_per_rack;
      p.servers_per_pod = c.servers_per_pod;
      p.duration_s = t.duration_s;
      p.flows_per_s = t.flows_per_s;
      p.mean_bytes = t.mean_bytes;
      p.alpha = t.alpha;
      p.max_bytes = t.max_bytes;
      p.intra_rack_frac = t.intra_rack_frac;
      p.intra_pod_frac = t.intra_pod_frac;
      p.hot_pod = t.hot_pod;
      p.hot_pod_frac = t.hot_pod_frac;
      p.start_s = t.start_s;
      p.seed = t.seed;
      return tenant_class_traffic(p);
    }
    case TrafficPattern::kThreeTier: {
      ThreeTierParams p;
      p.num_servers = c.servers;
      p.duration_s = t.duration_s;
      p.requests_per_s = t.requests_per_s;
      p.frontend_frac = t.frontend_frac;
      p.cache_frac = t.cache_frac;
      p.request_bytes = t.request_bytes;
      p.cache_reply_bytes = t.cache_reply_bytes;
      p.storage_reply_bytes = t.storage_reply_bytes;
      p.miss_frac = t.miss_frac;
      p.think_s = t.think_s;
      p.start_s = t.start_s;
      p.seed = t.seed;
      return three_tier_traffic(p);
    }
    case TrafficPattern::kTrace: {
      TraceParams p = trace_preset(t.profile);
      p.duration_s = t.duration_s;
      p.flows_per_s = t.flows_per_s;
      p.seed = t.seed;
      Workload flows = generate_trace(c.clos, p);
      for (Flow& f : flows) f.start_s += t.start_s;
      return flows;
    }
    case TrafficPattern::kTenantChurn: {
      TenantChurnParams p;
      p.duration_s = t.duration_s;
      p.arrivals_per_s = t.arrivals_per_s;
      p.mean_lifetime_s = t.mean_lifetime_s;
      p.flows_per_s = t.flows_per_s;
      p.seed = t.seed;
      Workload flows = generate_tenant_churn(c.clos, p);
      for (Flow& f : flows) f.start_s += t.start_s;
      return flows;
    }
  }
  return {};
}

void merge_traffic(CompiledScenario& c, std::string_view file) {
  std::uint32_t group_base = 0;
  for (std::size_t i = 0; i < c.spec.traffic.size(); ++i) {
    const TrafficSpec& t = c.spec.traffic[i];
    Workload entry;
    try {
      entry = generate_entry(t, c);
    } catch (const std::invalid_argument& e) {
      fail(file, "traffic entry " + std::to_string(i) + " (\"" +
                     to_string(t.pattern) + "\") rejected: " + e.what());
    }
    std::uint32_t cls = 0;
    for (; cls < c.class_names.size(); ++cls) {
      if (c.class_names[cls] == t.tenant_class) break;
    }
    if (cls == c.class_names.size()) c.class_names.push_back(t.tenant_class);
    const auto base = static_cast<std::uint32_t>(c.flows.size());
    std::uint32_t next_group_base = group_base;
    for (Flow f : entry) {
      for (std::uint32_t& dep : f.depends_on) dep += base;
      if (f.group != Flow::kNoGroup) {
        f.group += group_base;
        next_group_base = std::max(next_group_base, f.group + 1);
      }
      c.flows.push_back(std::move(f));
      c.flow_class.push_back(cls);
    }
    group_base = next_group_base;
  }
}

// ---- compile: failure schedule ---------------------------------------------

NodeRole role_from(const std::string& role) {
  if (role == "edge") return NodeRole::kEdge;
  if (role == "agg") return NodeRole::kAgg;
  return NodeRole::kCore;  // parse_scenario validated the enum
}

void build_failures(CompiledScenario& c, std::string_view file) {
  const auto reject = [&](const std::string& what) {
    fail(file, "failure schedule rejected: " + what);
  };
  try {
    for (std::size_t i = 0; i < c.spec.failures.size(); ++i) {
      const FailureSpec& f = c.spec.failures[i];
      // Control-plane chaos never enters the data-plane schedule: it
      // compiles into ConversionFaults (build_control_faults).
      if (f.kind == FailureKind::kControllerCrash ||
          f.kind == FailureKind::kControlPartition) {
        continue;
      }
      FailureSet set;
      Rng rng{f.seed};
      switch (f.kind) {
        case FailureKind::kCoreColumn:
          set = core_column_failure(*c.base_graph, f.first, f.count);
          break;
        case FailureKind::kLinks:
          set.links = sample_fabric_failures(*c.base_graph, f.fraction, rng);
          break;
        case FailureKind::kSwitches:
          set.switches = sample_switch_failures(
              *c.base_graph, role_from(f.role), f.fraction, rng);
          break;
        case FailureKind::kControllerCrash:
        case FailureKind::kControlPartition:
          break;  // unreachable: skipped above
      }
      if (set.empty()) {
        reject("entry " + std::to_string(i) +
               " samples an empty failure set (fraction too small for this "
               "topology)");
      }
      for (std::uint32_t flap = 0; flap < f.flaps; ++flap) {
        const double shift = static_cast<double>(flap) * f.period_s;
        c.failures.fail_at(f.fail_at + shift, set);
        if (f.recover_at >= 0) {
          c.failures.recover_at(f.recover_at + shift, set);
        }
      }
    }
    c.failures.validate();
  } catch (const std::invalid_argument& e) {
    reject(e.what());
  }
}

// Control-plane failure entries -> the executor's fault description.
// controller_crash kills the primary at fail_at (earliest entry wins when a
// scenario is hand-edited into several; the grammar's overlap check already
// rejects that). control_partition islands Pods [first, first+count) per
// flap window; recover_at < 0 means the island never heals.
ConversionFaults build_control_faults(const CompiledScenario& c) {
  ConversionFaults faults;
  for (const FailureSpec& f : c.spec.failures) {
    switch (f.kind) {
      case FailureKind::kControllerCrash:
        faults.kill_primary_at_s =
            faults.kill_primary_at_s < 0.0
                ? f.fail_at
                : std::min(faults.kill_primary_at_s, f.fail_at);
        break;
      case FailureKind::kControlPartition:
        for (std::uint32_t flap = 0; flap < f.flaps; ++flap) {
          const double shift = static_cast<double>(flap) * f.period_s;
          for (std::uint32_t pod = f.first; pod < f.first + f.count; ++pod) {
            ControlPartition p;
            p.pod = PodId{pod};
            p.start_s = f.fail_at + shift;
            p.end_s = f.recover_at >= 0 ? f.recover_at + shift : -1.0;
            faults.partitions.push_back(p);
          }
        }
        break;
      default:
        break;
    }
  }
  return faults;
}

// ---- compile: cross checks --------------------------------------------------

void check_engine_constraints(const CompiledScenario& c,
                              std::string_view file) {
  const Engine engine = c.spec.sim.engine;
  if (engine == Engine::kAutopilot) {
    if (!c.tree) {
      fail(file,
           "engine \"autopilot\" requires topology kind \"fat_tree\" or "
           "\"flat_tree\"");
    }
    if (c.spec.sim.max_time_s > 600.0) {
      fail(file,
           "engine \"autopilot\" requires max_time_s in (0, 600] (decision "
           "epochs run serially)");
    }
  }
  if (engine == Engine::kPacket || engine == Engine::kPacketSharded) {
    for (const TrafficSpec& t : c.spec.traffic) {
      if (t.pattern == TrafficPattern::kThreeTier) {
        fail(file, std::string{"engine \""} + to_string(engine) +
                       "\" does not support pattern \"three_tier\" "
                       "(dependency-chained flows)");
      }
    }
  }
  if (engine == Engine::kPacketSharded) {
    for (std::size_t i = 0; i < c.flows.size(); ++i) {
      const Flow& f = c.flows[i];
      if (f.src / c.servers_per_pod != f.dst / c.servers_per_pod) {
        fail(file,
             "engine \"packet_sharded\" requires Pod-local traffic (flow " +
                 std::to_string(i) + " crosses Pods)");
      }
    }
  }
  if (!c.failures.empty() && engine == Engine::kFluid &&
      c.spec.sim.refresh == RefreshMode::kRepair &&
      !c.spec.conversion.present) {
    const bool single_window =
        c.spec.failures.size() == 1 && c.spec.failures[0].flaps == 1;
    if (!single_window) {
      fail(file,
           "refresh \"repair\" supports a single failure window (use "
           "refresh \"reroute\" for flapping or composite schedules)");
    }
  }
}

// ---- run: summaries ---------------------------------------------------------

// flattree::percentile is the benches' percentile too, so
// tests/test_scenario_diff.cc can pin these summaries byte-identical to
// bench_failure_recovery's.
ClassSummary summarize(std::string name, std::size_t flows,
                       const std::vector<double>& fcts) {
  ClassSummary s;
  s.name = std::move(name);
  s.flows = flows;
  s.completed = fcts.size();
  for (double f : fcts) s.worst_fct_s = std::max(s.worst_fct_s, f);
  s.p99_fct_s = percentile(fcts, 99.0);
  s.p50_fct_s = percentile(fcts, 50.0);
  double sum = 0;
  for (double f : fcts) sum += f;
  s.mean_fct_s = fcts.empty() ? 0.0 : sum / static_cast<double>(fcts.size());
  return s;
}

// Aggregate + per-class summaries from per-flow (completed, fct) outcomes.
void summarize_flows(const CompiledScenario& c,
                     const std::vector<std::pair<bool, double>>& outcomes,
                     ScenarioResult& result) {
  std::vector<double> all;
  std::vector<std::vector<double>> per_class(c.class_names.size());
  std::vector<std::size_t> class_flows(c.class_names.size(), 0);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::uint32_t cls = c.flow_class[i];
    ++class_flows[cls];
    if (!outcomes[i].first) continue;
    all.push_back(outcomes[i].second);
    per_class[cls].push_back(outcomes[i].second);
  }
  result.aggregate = summarize("", outcomes.size(), all);
  for (std::size_t k = 0; k < c.class_names.size(); ++k) {
    result.classes.push_back(
        summarize(c.class_names[k], class_flows[k], per_class[k]));
  }
}

std::vector<std::pair<bool, double>> fluid_outcomes(
    const std::vector<FluidFlowResult>& results) {
  std::vector<std::pair<bool, double>> out;
  out.reserve(results.size());
  for (const FluidFlowResult& r : results) {
    out.emplace_back(r.completed, r.completed ? r.fct_s() : 0.0);
  }
  return out;
}

// ---- run: engine pipelines --------------------------------------------------

Controller make_controller(const CompiledScenario& c,
                           const RunOptions& options) {
  ControllerOptions opts;
  opts.k_global = opts.k_local = opts.k_clos = c.spec.sim.k_paths;
  opts.count_rules = c.spec.sim.count_rules;
  opts.delay = c.delay;
  opts.sink = options.sink;
  return Controller{FlatTree{c.tree->params()}, opts};
}

struct FluidRun {
  std::vector<FluidFlowResult> results;
  ScheduleRunStats sched;
  std::vector<std::pair<std::string, double>> extras;
};

FluidRun run_fluid(const CompiledScenario& c, const RunOptions& options) {
  FluidRun out;
  FluidOptions fluid_opts;
  fluid_opts.max_time_s = c.spec.sim.max_time_s;
  fluid_opts.sink = options.sink;
  const std::uint32_t k = c.spec.sim.k_paths;

  std::optional<Controller> controller;
  if (c.tree) controller.emplace(make_controller(c, options));

  // Conversion pipeline: execute the staged protocol, then replay its
  // timeline under the workload.
  if (c.spec.conversion.present) {
    const ConversionSpec& conv = c.spec.conversion;
    const CompiledMode from = controller->compile(c.assignment, k);
    const CompiledMode to = controller->compile(c.conversion_to, k);
    const std::vector<std::pair<NodeId, NodeId>> pairs =
        workload_pairs(from.graph(), c.flows);
    ConversionExecOptions exec_opts;
    exec_opts.staged = conv.staged;
    exec_opts.stage_checkpoints = conv.stage_checkpoints;
    exec_opts.ocs_partitions = conv.ocs_partitions;
    exec_opts.channel.drop_probability = conv.drop_probability;
    exec_opts.channel.delay_s = conv.channel_delay_s;
    exec_opts.channel.timeout_s = conv.channel_timeout_s;
    exec_opts.channel.backoff = conv.channel_backoff;
    exec_opts.channel.jitter = conv.channel_jitter;
    exec_opts.channel.max_attempts = conv.channel_max_attempts;
    exec_opts.seed = conv.seed;
    exec_opts.sink = options.sink;
    const ConversionFaults control_faults = build_control_faults(c);
    const ConversionExecutor executor{*controller, exec_opts};
    const ExecutionReport report = executor.execute_under_storm(
        from, to, pairs, c.failures, control_faults, conv.at_s);
    out.results =
        run_fluid_with_conversion(report, c.flows, fluid_opts, &out.sched);
    out.extras.emplace_back("conv_finish_s", report.finish_s);
    out.extras.emplace_back("conv_blackhole_s", report.total_blackhole_s);
    out.extras.emplace_back("conv_retries", report.retries);
    out.extras.emplace_back("conv_replans", report.replans);
    out.extras.emplace_back("conv_stages_committed", report.stages_committed);
    out.extras.emplace_back("conv_stages_total", report.stages_total);
    out.extras.emplace_back("conv_outcome_code",
                            static_cast<double>(report.outcome));
    return out;
  }

  // Repair refresh: the one pipeline bench_failure_recovery's cells run.
  if (!c.failures.empty() && c.spec.sim.refresh == RefreshMode::kRepair) {
    RepairRun run =
        run_fluid_with_repair(*controller, c.assignment, c.flows, c.failures,
                              c.spec.sim.repair_lag_s, fluid_opts);
    std::vector<double> base_fcts;
    for (const FluidFlowResult& r : run.base) {
      if (r.completed) base_fcts.push_back(r.fct_s());
    }
    double base_worst = 0;
    for (double f : base_fcts) base_worst = std::max(base_worst, f);
    double worst = 0;
    for (const FluidFlowResult& r : run.failed) {
      if (r.completed) worst = std::max(worst, r.fct_s());
    }
    out.results = std::move(run.failed);
    out.sched = run.sched;
    out.extras.emplace_back("base_worst_fct_s", base_worst);
    out.extras.emplace_back("base_p99_fct_s", percentile(base_fcts, 99.0));
    out.extras.emplace_back("inflation",
                            base_worst > 0 ? worst / base_worst : 0.0);
    out.extras.emplace_back("repair_lag_s", run.repair_lag_s);
    out.extras.emplace_back("pairs_invalidated",
                            static_cast<double>(run.plan.pairs_invalidated));
    out.extras.emplace_back("pairs_retained",
                            static_cast<double>(run.plan.pairs_retained));
    return out;
  }

  // Plain / reroute / capacity-only pipelines share one provider setup.
  std::optional<CompiledMode> live;
  std::shared_ptr<PathCache> cache;
  PathProvider provider;
  const Graph* graph = c.base_graph.get();
  if (controller) {
    live.emplace(controller->compile(c.assignment, k));
    graph = &live->graph();
    provider = path_provider(*live);
  } else {
    cache = std::make_shared<PathCache>(*c.base_graph, k);
    cache->attach_obs(options.sink);
    provider = [cache](NodeId src, NodeId dst, std::uint32_t) {
      return cache->server_paths(src, dst);
    };
  }
  FluidSimulator sim{*graph, provider, fluid_opts};
  if (c.failures.empty()) {
    out.results = sim.run(c.flows);
    return out;
  }
  const double lag =
      c.spec.sim.repair_lag_s >= 0 ? c.spec.sim.repair_lag_s : 0.1;
  RoutingRefresh refresh;  // null = capacity changes only
  if (c.spec.sim.refresh == RefreshMode::kReroute) {
    const obs::ObsSink sink = options.sink;
    refresh = [k, sink](const Graph& degraded) {
      auto degraded_cache = std::make_shared<PathCache>(degraded, k);
      degraded_cache->attach_obs(sink);
      return PathProvider{
          [degraded_cache](NodeId src, NodeId dst, std::uint32_t) {
            return degraded_cache->server_paths(src, dst);
          }};
    };
  }
  out.results =
      sim.run_with_schedule(c.flows, c.failures, lag, refresh, &out.sched);
  return out;
}

void run_packet(const CompiledScenario& c, const RunOptions& options,
                ScenarioResult& result) {
  PacketSim sim;
  sim.attach_obs(options.sink);
  sim.set_network(*c.base_graph);
  PathCache cache{*c.base_graph, c.spec.sim.k_paths};
  cache.attach_obs(options.sink);
  for (const Flow& f : c.flows) {
    sim.add_flow(f.src, f.dst, f.bytes, f.start_s,
                 cache.server_paths(NodeId{f.src}, NodeId{f.dst}));
  }
  sim.run_until(c.spec.sim.max_time_s);
  std::vector<std::pair<bool, double>> outcomes;
  outcomes.reserve(c.flows.size());
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    const auto fi = static_cast<std::uint32_t>(i);
    const bool done = sim.flow_completed(fi);
    outcomes.emplace_back(
        done, done ? sim.flow_finish_time(fi) - sim.flow_start_time(fi) : 0.0);
  }
  summarize_flows(c, outcomes, result);
  result.extras.emplace_back("packets_dropped",
                             static_cast<double>(sim.packets_dropped()));
  result.extras.emplace_back("bytes_acked",
                             static_cast<double>(sim.total_bytes_acked()));
}

void run_packet_sharded(const CompiledScenario& c, const RunOptions& options,
                        ScenarioResult& result) {
  const std::uint32_t shards = c.clos.pods;
  std::vector<std::vector<std::uint32_t>> pod_flows(shards);
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    pod_flows[c.flows[i].src / c.servers_per_pod].push_back(
        static_cast<std::uint32_t>(i));
  }
  const std::uint32_t k = c.spec.sim.k_paths;
  const ShardedPacketSim sharded{*c.base_graph, PacketSimOptions{},
                                 c.spec.seed};
  const ShardedPacketSim::ShardBuilder builder =
      [&](std::uint32_t shard, PacketSim& sim, Rng&) {
        PathCache cache{*c.base_graph, k};
        for (const std::uint32_t idx : pod_flows[shard]) {
          const Flow& f = c.flows[idx];
          sim.add_flow(f.src, f.dst, f.bytes, f.start_s,
                       cache.server_paths(NodeId{f.src}, NodeId{f.dst}));
        }
      };
  const ShardedRunStats stats = sharded.run(
      shards, builder, c.spec.sim.max_time_s, options.pool, options.sink);
  result.aggregate = summarize("", stats.flows, stats.fcts_s);
  result.extras.emplace_back("shards", shards);
  result.extras.emplace_back("packets_dropped",
                             static_cast<double>(stats.packets_dropped));
  result.extras.emplace_back("bytes_acked",
                             static_cast<double>(stats.bytes_acked));
}

// Returns the final per-Pod modes, one letter per Pod ("CLG...").
std::string run_autopilot(const CompiledScenario& c, const RunOptions& options,
                          ScenarioResult& result) {
  const Controller controller = make_controller(c, options);
  AutopilotOptions opts;
  opts.epoch_s = c.spec.sim.epoch_s;
  opts.exec.stage_checkpoints = true;
  opts.exec.seed = c.spec.seed;
  opts.exec.sink = options.sink;
  opts.sink = options.sink;
  const AutopilotLoop loop{controller, opts};
  const AutopilotResult r =
      loop.run(c.flows, c.assignment, c.spec.sim.max_time_s);
  result.aggregate.flows = r.flows;
  result.aggregate.completed = r.completed;
  result.aggregate.mean_fct_s =
      r.completed > 0 ? r.fct_sum_s / static_cast<double>(r.completed) : 0.0;
  result.extras.emplace_back("ap_epochs",
                             static_cast<double>(r.epochs.size()));
  result.extras.emplace_back("ap_conversions_started", r.conversions_started);
  result.extras.emplace_back("ap_conversions_committed",
                             r.conversions_committed);
  return mode_letters(r.final_assignment);
}

// ---- run: SLOs + row --------------------------------------------------------

const ClassSummary& summary_for(const ScenarioResult& result,
                                const std::string& tenant_class) {
  if (tenant_class.empty()) return result.aggregate;
  for (const ClassSummary& s : result.classes) {
    if (s.name == tenant_class) return s;
  }
  return result.aggregate;  // unreachable: parse validated class names
}

double metric_value(const ClassSummary& s, SloMetric metric) {
  switch (metric) {
    case SloMetric::kWorstFct: return s.worst_fct_s;
    case SloMetric::kP99Fct: return s.p99_fct_s;
    case SloMetric::kP50Fct: return s.p50_fct_s;
    case SloMetric::kMeanFct: return s.mean_fct_s;
    case SloMetric::kCompletedFrac: return s.completed_frac();
  }
  return 0.0;
}

void evaluate_slos(const CompiledScenario& c, ScenarioResult& result) {
  for (const SloSpec& slo : c.spec.slos) {
    SloVerdict verdict;
    verdict.spec = slo;
    verdict.value = metric_value(summary_for(result, slo.tenant_class),
                                 slo.metric);
    verdict.pass = (!slo.has_max || verdict.value <= slo.max_value) &&
                   (!slo.has_min || verdict.value >= slo.min_value);
    result.slos_pass = result.slos_pass && verdict.pass;
    result.slos.push_back(verdict);
  }
  result.matches_expect = result.slos_pass == c.spec.expect_pass;
}

void emit_summary_fields(exec::ResultRow& row, const std::string& prefix,
                         const ClassSummary& s) {
  row.set(prefix + "flows", static_cast<std::uint64_t>(s.flows))
      .set(prefix + "completed", static_cast<std::uint64_t>(s.completed))
      .set(prefix + "completed_frac", s.completed_frac())
      .set(prefix + "worst_fct_s", s.worst_fct_s)
      .set(prefix + "p99_fct_s", s.p99_fct_s)
      .set(prefix + "p50_fct_s", s.p50_fct_s)
      .set(prefix + "mean_fct_s", s.mean_fct_s);
}

// `final_modes` (autopilot only; empty otherwise) closes the row.
void build_row(const CompiledScenario& c, ScenarioResult& result,
               const std::string& final_modes) {
  exec::ResultRow row;
  row.set("scenario", result.name)
      .set("engine", to_string(c.spec.sim.engine))
      .set("topology", to_string(c.spec.topology.kind))
      .set("servers", static_cast<std::uint64_t>(c.servers));
  emit_summary_fields(row, "", result.aggregate);
  for (const auto& [key, value] : result.extras) row.set(key, value);
  // Per-class blocks whenever the scenario defines a class structure beyond
  // the single implicit "default".
  const bool trivial_classes =
      result.classes.size() <= 1 &&
      (result.classes.empty() || result.classes[0].name == "default");
  if (!trivial_classes) {
    for (const ClassSummary& s : result.classes) {
      emit_summary_fields(row, "c." + s.name + ".", s);
    }
  }
  for (std::size_t i = 0; i < result.slos.size(); ++i) {
    const SloVerdict& v = result.slos[i];
    const std::string p = "slo." + std::to_string(i) + ".";
    row.set(p + "class", v.spec.tenant_class)
        .set(p + "metric", to_string(v.spec.metric))
        .set(p + "value", v.value)
        .set(p + "pass", v.pass);
  }
  row.set("slos_pass", result.slos_pass)
      .set("expect", c.spec.expect_pass ? "pass" : "fail")
      .set("matches_expect", result.matches_expect);
  if (!final_modes.empty()) row.set("final_modes", final_modes);
  result.row = std::move(row);
}

}  // namespace

CompiledScenario compile_scenario(const Scenario& spec,
                                  std::string_view file) {
  CompiledScenario c;
  c.spec = spec;
  c.file = std::string{file};

  // Topology: the Clos device budget plus (for flat kinds) the tree.
  ClosParams clos = ClosParams::fat_tree(spec.topology.k);
  clos.servers_per_edge = spec.topology.servers_per_edge;
  try {
    clos.validate();
  } catch (const std::exception& e) {
    fail(file, std::string{"topology rejected: "} + e.what());
  }
  c.clos = clos;
  c.servers = clos.total_servers();
  c.servers_per_rack = clos.servers_per_edge;
  c.servers_per_pod = clos.servers_per_edge * clos.edge_per_pod;

  switch (spec.topology.kind) {
    case TopologyKind::kFatTree:
      c.tree = build_tree(spec.topology, clos, file);
      c.assignment = ModeAssignment::uniform(clos.pods, PodMode::kClos);
      c.base_graph =
          std::make_shared<const Graph>(c.tree->realize(c.assignment));
      break;
    case TopologyKind::kFlatTree:
      c.tree = build_tree(spec.topology, clos, file);
      c.assignment = assignment_from(spec.topology.pod_modes, clos.pods);
      c.base_graph =
          std::make_shared<const Graph>(c.tree->realize(c.assignment));
      break;
    case TopologyKind::kRandomGraph:
      try {
        c.base_graph = std::make_shared<const Graph>(
            build_random_graph_from_clos(clos, spec.topology.wiring_seed));
      } catch (const std::exception& e) {
        fail(file, std::string{"topology rejected: "} + e.what());
      }
      break;
    case TopologyKind::kTwoStage:
      try {
        TwoStageParams two = TwoStageParams::from_clos(clos);
        two.seed = spec.topology.wiring_seed;
        c.base_graph =
            std::make_shared<const Graph>(build_two_stage_random_graph(two));
      } catch (const std::exception& e) {
        fail(file, std::string{"topology rejected: "} + e.what());
      }
      break;
  }

  merge_traffic(c, file);
  build_failures(c, file);

  if (spec.conversion.present) {
    c.conversion_to = assignment_from(spec.conversion.to, clos.pods);
    c.delay.ocs_reconfigure_s = spec.conversion.ocs_s;
    c.delay.rule_delete_s = spec.conversion.rule_delete_s;
    c.delay.rule_add_s = spec.conversion.rule_add_s;
    c.delay.controllers = spec.conversion.controllers;
    // The grammar parses the channel knobs for type only; the channel is
    // the single authority on its ranges, so out-of-range values are
    // rejected here with the channel's own message (pinned by the parse
    // regression tests).
    ControlChannelOptions channel;
    channel.drop_probability = spec.conversion.drop_probability;
    channel.delay_s = spec.conversion.channel_delay_s;
    channel.timeout_s = spec.conversion.channel_timeout_s;
    channel.backoff = spec.conversion.channel_backoff;
    channel.jitter = spec.conversion.channel_jitter;
    channel.max_attempts = spec.conversion.channel_max_attempts;
    try {
      channel.validate();
    } catch (const std::invalid_argument& e) {
      fail(file, std::string{"conversion channel rejected: "} + e.what());
    }
  } else {
    c.delay = ConversionDelayModel{};
    c.delay.controllers = spec.sim.controllers;
  }
  try {
    c.delay.validate();
  } catch (const std::invalid_argument& e) {
    fail(file, std::string{"conversion delay model rejected: "} + e.what());
  }

  check_engine_constraints(c, file);
  return c;
}

CompiledScenario compile_scenario_file(const std::string& path) {
  return compile_scenario(parse_scenario_file(path), path);
}

ScenarioResult run_scenario(const CompiledScenario& c,
                            const RunOptions& options) {
  ScenarioResult result;
  result.name = c.spec.name;
  std::string final_modes;
  switch (c.spec.sim.engine) {
    case Engine::kFluid: {
      FluidRun run = run_fluid(c, options);
      summarize_flows(c, fluid_outcomes(run.results), result);
      result.extras = std::move(run.extras);
      if (!c.failures.empty() || c.spec.conversion.present) {
        result.extras.emplace_back("fail_events", run.sched.fail_events);
        result.extras.emplace_back("recover_events", run.sched.recover_events);
        result.extras.emplace_back("refreshes", run.sched.refreshes);
        result.extras.emplace_back("reroutes", run.sched.reroutes);
        result.extras.emplace_back("black_holed", run.sched.black_holed);
      }
      break;
    }
    case Engine::kPacket:
      run_packet(c, options, result);
      break;
    case Engine::kPacketSharded:
      run_packet_sharded(c, options, result);
      break;
    case Engine::kAutopilot:
      final_modes = run_autopilot(c, options, result);
      break;
  }
  evaluate_slos(c, result);
  build_row(c, result, final_modes);
  return result;
}

}  // namespace flattree::scenario
