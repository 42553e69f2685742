// Shared helpers for the benchmark binaries: routing providers, workload ->
// LP-instance plumbing, statistics, the testbed flat-tree, the live-conversion
// cell, the route-link picker and fixed-width table printing. Each
// bench binary reproduces one table or figure of the paper and prints the
// same rows/series the paper reports, plus the scaling notes from
// EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "control/conversion_exec.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "exec/parallel.h"
#include "exec/pool.h"
#include "exec/results.h"
#include "exec/runner.h"
#include "lp/mcf.h"
#include "lp/throughput.h"
#include "net/capacity.h"
#include "net/graph.h"
#include "net/rng.h"
#include "net/stats.h"
#include "obs/json.h"
#include "routing/ecmp.h"
#include "routing/ksp.h"
#include "sim/fluid.h"
#include "sim/packet.h"
#include "traffic/flow.h"

namespace flattree::bench {

// Upper bound on --threads: far above any core count this runs on, far
// below a thread count that would exhaust the machine.
inline constexpr std::uint64_t kMaxThreads = 256;

// Minimal shared CLI for bench binaries: --seed N, --threads N (0 = one
// per core, at most kMaxThreads), --json-out PATH|none, --metrics-out
// PATH, --trace-out PATH. --seed and --threads take a plain decimal; any
// other text ("12x", "-1", "0x10", "") is a usage error (exit 2), never a
// silent truncation or wrap-around. `default_seed` preserves each bench's
// historical constant so a bare run reproduces the numbers recorded in
// EXPERIMENTS.md byte-for-byte.
inline exec::RunnerOptions parse_runner_options(const char* bench_name,
                                                int argc, char** argv,
                                                std::uint64_t default_seed) {
  exec::RunnerOptions options;
  options.name = bench_name;
  options.seed = default_seed;
  const auto usage = [&](int exit_code) {
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--threads N] [--json-out PATH|none]\n"
                 "          [--metrics-out PATH] [--trace-out PATH]\n"
                 "  --seed N         workload/topology sampling seed "
                 "(default %llu)\n"
                 "  --threads N      worker threads; 0 = one per core, at "
                 "most %llu (default 0)\n"
                 "  --json-out P     BENCH_%s.json destination: a file, a "
                 "directory ending in '/', or 'none' (default: ./)\n"
                 "  --metrics-out P  deterministic metrics JSON (also folded "
                 "into the BENCH json); off by default\n"
                 "  --trace-out P    Chrome trace_event JSON for "
                 "chrome://tracing / ui.perfetto.dev; off by default\n",
                 bench_name, static_cast<unsigned long long>(default_seed),
                 static_cast<unsigned long long>(kMaxThreads), bench_name);
    std::exit(exit_code);
  };
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", bench_name,
                     argv[i]);
        usage(2);
      }
      return argv[++i];
    };
    const auto decimal = [&](std::uint64_t max) {
      const char* flag = argv[i];
      const char* text = value();
      const char* end = text + std::strlen(text);
      std::uint64_t n = 0;
      const auto [ptr, ec] = std::from_chars(text, end, n);
      if (ec != std::errc{} || ptr != end || n > max) {
        std::fprintf(stderr,
                     "%s: %s takes a decimal integer <= %llu, got '%s'\n",
                     bench_name, flag, static_cast<unsigned long long>(max),
                     text);
        usage(2);
      }
      return n;
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = decimal(std::numeric_limits<std::uint64_t>::max());
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.threads = static_cast<std::uint32_t>(decimal(kMaxThreads));
    } else if (std::strcmp(argv[i], "--json-out") == 0) {
      options.json_out = value();
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      options.metrics_out = value();
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      options.trace_out = value();
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument %s\n", bench_name, argv[i]);
      usage(2);
    }
  }
  return options;
}

// Reads the number fields `keys` of a perf-baseline JSON object through
// the shared reader, in order. A gate against a baseline it cannot read
// would pass vacuously, so an unreadable file, a syntax error, or a
// missing or non-number field prints a positioned diagnostic and exits 2.
inline std::vector<double> read_baseline(
    const char* bench_name, const std::string& path,
    std::initializer_list<const char*> keys) {
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "%s: bad baseline: %s\n", bench_name, what.c_str());
    std::exit(2);
  };
  const auto at = [&](const obs::json::Node& node) {
    return path + ":" + std::to_string(node.line) + ":" +
           std::to_string(node.column) + ": ";
  };
  std::ifstream in{path, std::ios::binary};
  if (!in) fail(path + ": cannot read file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::json::Node root;
  try {
    root = obs::json::parse(buffer.str(), path);
  } catch (const obs::json::Error& e) {
    fail(e.what());
  }
  std::vector<double> values;
  for (const char* key : keys) {
    const obs::json::Node* node = root.find(key);
    if (node == nullptr) {
      fail(at(root) + "missing required key \"" + key + "\"");
    } else if (node->kind != obs::json::Node::Kind::kNumber) {
      fail(at(*node) + "key \"" + key + "\": expected number, got " +
           node->kind_name());
    } else {
      values.push_back(node->number);
    }
  }
  return values;
}

inline PathProvider ksp_provider(const Graph& g, std::uint32_t k,
                                 const obs::ObsSink& sink = {}) {
  auto cache = std::make_shared<PathCache>(g, k);
  cache->attach_obs(sink);
  return [cache](NodeId src, NodeId dst, std::uint32_t) {
    return cache->server_paths(src, dst);
  };
}

inline PathProvider ecmp_provider(const Graph& g, std::uint64_t seed = 0) {
  auto router = std::make_shared<EcmpRouter>(g, seed);
  return [router](NodeId src, NodeId dst, std::uint32_t flow) {
    return std::vector<Path>{router->flow_path(src, dst, flow)};
  };
}

// Warms `cache` with every switch pair `flows` touches, fanning the Yen's
// runs across `pool` (serial when null).
inline void warm_cache(PathCache& cache, const Workload& flows,
                       exec::ThreadPool* pool) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(flows.size());
  for (const Flow& f : flows) {
    pairs.emplace_back(NodeId{f.src}, NodeId{f.dst});
  }
  cache.precompute(pairs, pool);
}

// Builds the path-based MCF instance for a workload under k-shortest-path
// routing on `g`. The KSP precompute — the hot stage — fans across `pool`.
inline McfInstance mcf_for(const Graph& g, const Workload& flows,
                           std::uint32_t k,
                           exec::ThreadPool* pool = nullptr,
                           const obs::ObsSink& sink = {}) {
  const LogicalTopology topo{g};
  PathCache cache{g, k};
  cache.attach_obs(sink);
  warm_cache(cache, flows, pool);
  std::vector<FlowPaths> flow_paths;
  flow_paths.reserve(flows.size());
  for (const Flow& f : flows) {
    flow_paths.push_back(FlowPaths{NodeId{f.src}, NodeId{f.dst},
                                   cache.server_paths(NodeId{f.src},
                                                      NodeId{f.dst})});
  }
  return build_mcf_instance(topo, flow_paths);
}

// Fabric-throughput MCF (the Jellyfish methodology the paper follows, used
// by the Table-1-style throughput comparisons): switch-switch edges are
// capacity constraints; server access links are not shared resources —
// instead every flow is individually capped at the line rate by a private
// per-commodity edge. This measures what the *fabric* can sustain, which
// is what distinguishes the architectures.
inline McfInstance fabric_mcf(const Graph& g, const Workload& flows,
                              std::uint32_t k,
                              exec::ThreadPool* pool = nullptr,
                              const obs::ObsSink& sink = {}) {
  const LogicalTopology topo{g};
  PathCache cache{g, k};
  cache.attach_obs(sink);
  warm_cache(cache, flows, pool);
  McfInstance instance;
  std::unordered_map<std::uint32_t, std::uint32_t> edge_row;
  const auto row_for = [&](std::uint32_t directed) {
    const auto [it, inserted] = edge_row.try_emplace(
        directed, static_cast<std::uint32_t>(instance.capacity.size()));
    if (inserted) instance.capacity.push_back(topo.capacity(directed));
    return it->second;
  };
  for (const Flow& f : flows) {
    McfCommodity commodity;
    // Private line-rate cap shared by all of this flow's paths.
    const std::uint32_t cap_row =
        static_cast<std::uint32_t>(instance.capacity.size());
    instance.capacity.push_back(10e9);
    for (const Path& path :
         cache.server_paths(NodeId{f.src}, NodeId{f.dst})) {
      std::vector<std::uint32_t> rows{cap_row};
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        // Skip server access hops: only the switch fabric is shared.
        if (!is_switch(g.node(path[i]).role) ||
            !is_switch(g.node(path[i + 1]).role)) {
          continue;
        }
        rows.push_back(row_for(topo.directed_index(path[i], path[i + 1])));
      }
      commodity.paths.push_back(std::move(rows));
    }
    instance.commodities.push_back(std::move(commodity));
  }
  return instance;
}

// Runs `n` independent experiment replicates across the pool; replicate i
// computes fn(i) (deriving any randomness from a deterministic per-index
// stream, e.g. exec::task_rng(seed, i)). Results come back in index order,
// bit-identical for any thread count.
template <typename Fn>
[[nodiscard]] auto parallel_replicates(exec::ThreadPool* pool, std::size_t n,
                                       Fn&& fn) {
  return exec::parallel_map(pool, n, std::forward<Fn>(fn));
}

// Deterministically subsample a workload down to `count` flows.
inline Workload subsample(const Workload& flows, std::size_t count,
                          std::uint64_t seed) {
  if (flows.size() <= count) return flows;
  std::vector<std::uint32_t> index(flows.size());
  std::iota(index.begin(), index.end(), 0u);
  Rng rng{seed};
  shuffle(index, rng);
  Workload out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(flows[index[i]]);
  return out;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

using flattree::percentile;

// Flow counts and worst / p99 FCT of one fluid run (FCTs of completed
// flows only).
struct RunStats {
  double worst_fct{0.0};
  double p99_fct{0.0};
  std::size_t completed{0};
  std::size_t total{0};
};

inline RunStats summarize(const std::vector<FluidFlowResult>& results) {
  RunStats stats;
  std::vector<double> fcts;
  for (const FluidFlowResult& r : results) {
    ++stats.total;
    if (!r.completed) continue;
    ++stats.completed;
    fcts.push_back(r.fct_s());
  }
  for (double f : fcts) stats.worst_fct = std::max(stats.worst_fct, f);
  stats.p99_fct = percentile(fcts, 99.0);
  return stats;
}

// The paper's testbed flat-tree (Figure 2): 4 Pods, 24 servers, one 6-port
// and one 4-port converter per column.
inline FlatTreeParams testbed_params() {
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  return params;
}

// One live-conversion cell: every Pod converts Clos -> global at `t0`
// while `flows` run, under the link churn in `storm` (empty = a calm
// fabric). The executor (exec_opts) tracks the workload's pairs; the flows
// run once undisturbed on the outgoing mode and once through every
// transient topology of the execution, and a packet-level spot check (the
// first 8 flows, 2 MB each) rides the same timeline. The fluid runs share
// exec_opts.sink.
struct ConversionCell {
  ExecutionReport report;
  RunStats base;
  RunStats churn;
  ScheduleRunStats sched;
  std::uint64_t packet_bytes_acked{0};
  std::size_t packet_completed{0};
  std::size_t packet_flows{8};
};

inline ConversionCell run_conversion_cell(
    const Controller& controller, const Workload& flows,
    const ConversionExecOptions& exec_opts, const FailureSchedule& storm,
    const ConversionFaults& faults, double t0) {
  const CompiledMode from = controller.compile_uniform(PodMode::kClos);
  const CompiledMode to = controller.compile_uniform(PodMode::kGlobal);
  const std::vector<std::pair<NodeId, NodeId>> pairs =
      workload_pairs(from.graph(), flows);
  const ConversionExecutor executor{controller, exec_opts};
  ConversionCell out;
  out.report = executor.execute_under_storm(from, to, pairs, storm, faults, t0);

  FluidOptions fluid_opts;
  fluid_opts.sink = exec_opts.sink;
  FluidSimulator baseline{from.graph(), path_provider(from), fluid_opts};
  out.base = summarize(baseline.run(flows));
  out.churn = summarize(
      run_fluid_with_conversion(out.report, flows, fluid_opts, &out.sched));

  PacketSim sim;
  sim.set_network(*out.report.timeline.front().graph);
  for (std::size_t i = 0; i < out.packet_flows; ++i) {
    const Flow& f = flows[i];
    sim.add_flow(f.src, f.dst, 2e6, 0.0, conversion_paths_for(out.report, f));
  }
  drive_packet_sim(sim, out.report, flows, out.report.finish_s + 5.0);
  for (std::size_t i = 0; i < out.packet_flows; ++i) {
    const auto fi = static_cast<std::uint32_t>(i);
    out.packet_bytes_acked += sim.flow_bytes_acked(fi);
    if (sim.flow_completed(fi)) ++out.packet_completed;
  }
  return out;
}

// Up to `want` distinct fabric links that installed routes of the tracked
// pairs cross — failing one is guaranteed to hit live traffic. With `pod`,
// only pairs with both ends in that Pod and hops inside it count.
inline std::vector<LinkId> route_links(
    const CompiledMode& mode,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, std::size_t want,
    std::optional<PodId> pod = std::nullopt) {
  const Graph& g = mode.graph();
  const auto outside = [&](NodeId a, NodeId b) {
    return pod && (g.node(a).pod != *pod || g.node(b).pod != *pod);
  };
  std::vector<bool> taken(g.link_count(), false);
  std::vector<LinkId> picked;
  for (const auto& [src, dst] : pairs) {
    if (picked.size() >= want) break;
    if (outside(src, dst)) continue;
    for (const Path& path : mode.paths().server_paths(src, dst)) {
      if (picked.size() >= want) break;
      for (std::size_t h = 1; h + 2 < path.size(); ++h) {
        const NodeId a = path[h];
        const NodeId b = path[h + 1];
        if (outside(a, b)) continue;
        for (std::uint32_t i = 0; i < g.link_count(); ++i) {
          if (taken[i]) continue;
          const Link& l = g.link(LinkId{i});
          if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
            taken[i] = true;
            picked.push_back(LinkId{i});
            break;
          }
        }
        if (picked.size() >= want) break;
      }
    }
  }
  return picked;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double value, int precision = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

inline std::string fmt_gbps(double bps) { return fmt(bps / 1e9, 2); }

}  // namespace flattree::bench
