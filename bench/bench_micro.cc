// Micro-benchmarks of the substrates (google-benchmark): graph realization,
// Yen's k-shortest paths, the simplex solver, the max-min allocator, the
// fluid simulator event loop, and the packet simulator event rate.
#include <benchmark/benchmark.h>

#include "bench/util.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "lp/mcf.h"
#include "sim/packet.h"
#include "topo/clos.h"
#include "traffic/traces.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

void BM_RealizeGlobalMode(benchmark::State& state) {
  const FlatTree tree{FlatTreeParams::defaults_for(ClosParams::topo1())};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.realize_uniform(PodMode::kGlobal));
  }
}
BENCHMARK(BM_RealizeGlobalMode);

void BM_YenKsp(benchmark::State& state) {
  const FlatTree tree{FlatTreeParams::defaults_for(ClosParams::topo1())};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  const KspSolver solver{g};
  const auto edges = g.nodes_with_role(NodeRole::kEdge);
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.k_shortest_paths(edges[i % 64], edges[(i * 7 + 40) % 128], k));
    ++i;
  }
}
BENCHMARK(BM_YenKsp)->Arg(4)->Arg(8)->Arg(16);

void BM_SimplexLpMin(benchmark::State& state) {
  const FlatTree tree{FlatTreeParams::defaults_for(ClosParams::topo2())};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  Rng rng{5};
  const Workload flows = bench::subsample(
      permutation_traffic(tree.clos().total_servers(), rng),
      static_cast<std::size_t>(state.range(0)), 1);
  const McfInstance instance = bench::mcf_for(g, flows, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp_min(instance));
  }
}
BENCHMARK(BM_SimplexLpMin)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);

void BM_MaxMinFill(benchmark::State& state) {
  const FlatTree tree{FlatTreeParams::defaults_for(ClosParams::topo1())};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  Rng rng{5};
  const Workload flows = bench::subsample(
      permutation_traffic(tree.clos().total_servers(), rng),
      static_cast<std::size_t>(state.range(0)), 1);
  const McfInstance instance = bench::mcf_for(g, flows, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_max_min_fill(instance));
  }
}
BENCHMARK(BM_MaxMinFill)->Arg(128)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_FluidTraceFct(benchmark::State& state) {
  const FlatTree tree{FlatTreeParams::defaults_for(ClosParams::topo2())};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  TraceParams params = TraceParams::web();
  params.duration_s = 0.1;
  params.flows_per_s = 2000;
  const Workload flows = generate_trace(tree.clos(), params);
  for (auto _ : state) {
    FluidSimulator sim{g, bench::ksp_provider(g, 8)};
    benchmark::DoNotOptimize(sim.run(flows));
  }
  state.counters["flows"] = static_cast<double>(flows.size());
}
BENCHMARK(BM_FluidTraceFct)->Unit(benchmark::kMillisecond);

void BM_PacketSimEventRate(benchmark::State& state) {
  FlatTreeParams params = bench::testbed_params();
  params.clos.link_bps = 1e9;
  const FlatTree tree{params};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  for (auto _ : state) {
    PacketSim sim;
    sim.set_network(g);
    PathCache cache{g, 4};
    for (std::uint32_t s = 0; s < 12; ++s) {
      sim.add_flow(s, (s + 6) % 24, 0, 0.0,
                   cache.server_paths(NodeId{s}, NodeId{(s + 6) % 24}));
    }
    sim.run_until(0.1);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(sim.events_processed()),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_PacketSimEventRate)->Unit(benchmark::kMillisecond);

void BM_ControllerCompile(benchmark::State& state) {
  const FlatTreeParams params = bench::testbed_params();
  ControllerOptions options;
  options.k_global = 4;
  const Controller ctl{FlatTree{params}, options};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.compile_uniform(PodMode::kGlobal));
  }
}
BENCHMARK(BM_ControllerCompile)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flattree

BENCHMARK_MAIN();
