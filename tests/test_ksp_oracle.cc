// Differential oracle for the Yen's kernel: KspSolver (CSR adjacency,
// epoch-stamped workspace, early-exit BFS) must return exactly the paths of
// the straightforward hash-set/deque kernel in ksp_reference.h — same
// paths, same order — on both k_shortest_paths and shortest_path.
//
// The fuzz covers what the fast kernel special-cases: parallel links (the
// CSR deduplicates them), server endpoints (servers are left out of the CSR
// and found by an adjacency test), degraded graphs with detached servers
// and dead switches, and disconnected pairs. It also pins the work counters
// (routing.ksp.spur_searches / bfs_expansions) across pool sizes and the
// edge cases of is_valid_path.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.h"
#include "exec/pool.h"
#include "ksp_reference.h"
#include "net/failures.h"
#include "net/rng.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "routing/ksp.h"
#include "routing/path.h"
#include "topo/random_graph.h"

namespace flattree {
namespace {

constexpr std::uint32_t kKs[] = {1, 4, 8, 16};

// Adds `count` parallel copies of random switch-switch links, plus a
// two-switch island with one server that nothing else can reach.
Graph with_parallels_and_island(Graph g, Rng& rng, std::size_t count) {
  std::vector<LinkId> fabric;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if (is_switch(g.node(l.a).role) && is_switch(g.node(l.b).role)) {
      fabric.push_back(LinkId{i});
    }
  }
  for (std::size_t i = 0; i < count && !fabric.empty(); ++i) {
    const Link l = g.link(fabric[rng.next_below(fabric.size())]);
    g.add_link(l.a, l.b, l.capacity_bps);
  }
  const NodeId a = g.add_node(NodeRole::kEdge);
  const NodeId b = g.add_node(NodeRole::kAgg);
  const NodeId s = g.add_node(NodeRole::kServer);
  g.add_link(a, b, 1e9);
  g.add_link(s, a, 1e9);
  return g;
}

// A copy of g without about `frac` of its links (server access links
// included, so some servers detach) and without one random switch.
Graph degraded(const Graph& g, Rng& rng, double frac) {
  FailureSet failures;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    if (rng.next_double() < frac) failures.links.push_back(LinkId{i});
  }
  const std::vector<NodeId> switches = g.switches();
  failures.switches.push_back(switches[rng.next_below(switches.size())]);
  return degrade(g, failures);
}

// Compares both kernels on `draws` random (src, dst) node pairs — any
// roles, src == dst allowed — for every k. Returns how many of the drawn
// pairs were disconnected.
std::size_t expect_matches_reference(const Graph& g, Rng& rng,
                                     std::size_t draws) {
  const KspSolver solver{g};
  std::size_t disconnected = 0;
  for (std::size_t d = 0; d < draws; ++d) {
    const auto draw = [&] {
      return NodeId{static_cast<std::uint32_t>(rng.next_below(g.node_count()))};
    };
    const NodeId src = draw();
    const NodeId dst = draw();
    SCOPED_TRACE(g.label(src) + " -> " + g.label(dst));
    const auto shortest = solver.shortest_path(src, dst);
    EXPECT_EQ(shortest, reference::shortest_path(g, src, dst));
    if (!shortest) ++disconnected;
    for (const std::uint32_t k : kKs) {
      EXPECT_EQ(solver.k_shortest_paths(src, dst, k),
                reference::k_shortest_paths(g, src, dst, k))
          << "k=" << k;
    }
  }
  return disconnected;
}

// Every ordered node pair of g, servers and switches alike.
void expect_all_pairs_match(const Graph& g, std::uint32_t k) {
  const KspSolver solver{g};
  for (std::uint32_t a = 0; a < g.node_count(); ++a) {
    for (std::uint32_t b = 0; b < g.node_count(); ++b) {
      const NodeId src{a};
      const NodeId dst{b};
      ASSERT_EQ(solver.k_shortest_paths(src, dst, k),
                reference::k_shortest_paths(g, src, dst, k))
          << g.label(src) << " -> " << g.label(dst);
    }
  }
}

Graph random_fabric(std::uint64_t seed, std::uint32_t switches,
                    std::uint32_t ports) {
  RandomGraphParams params;
  params.switches = switches;
  params.ports_per_switch = ports;
  params.servers = switches * 2;
  params.seed = seed;
  return build_random_graph(params);
}

FlatTree testbed_tree() {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  return FlatTree{p};
}

TEST(KspOracle, RandomFabricsMatchReference) {
  std::size_t disconnected = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng{seed * 7919};
    const auto shape = static_cast<std::uint32_t>(seed);
    const Graph base = random_fabric(seed, 10 + 2 * (shape % 4), 5 + shape % 3);
    expect_matches_reference(base, rng, 40);
    const Graph odd = with_parallels_and_island(base, rng, 6);
    disconnected += expect_matches_reference(odd, rng, 60);
    disconnected += expect_matches_reference(degraded(odd, rng, 0.15), rng, 60);
  }
  // The islands and detached servers must actually have been drawn.
  EXPECT_GT(disconnected, 0u);
}

TEST(KspOracle, FlatTreeModesMatchReference) {
  const FlatTree tree = testbed_tree();
  const auto pods = tree.params().clos.pods;
  ModeAssignment hybrid = ModeAssignment::uniform(pods, PodMode::kClos);
  hybrid.pod_modes[1] = PodMode::kGlobal;
  hybrid.pod_modes[2] = PodMode::kLocal;
  std::vector<std::pair<std::string, Graph>> modes;
  modes.emplace_back("clos", tree.realize_uniform(PodMode::kClos));
  modes.emplace_back("local", tree.realize_uniform(PodMode::kLocal));
  modes.emplace_back("global", tree.realize_uniform(PodMode::kGlobal));
  modes.emplace_back("hybrid", tree.realize(hybrid));
  Rng rng{20170821};
  std::size_t disconnected = 0;
  for (const auto& [name, g] : modes) {
    SCOPED_TRACE(name);
    expect_matches_reference(g, rng, 60);
    disconnected += expect_matches_reference(
        with_parallels_and_island(g, rng, 4), rng, 60);
    disconnected += expect_matches_reference(degraded(g, rng, 0.1), rng, 60);
  }
  EXPECT_GT(disconnected, 0u);
}

TEST(KspOracle, AllPairsOnSmallGraphsMatchReference) {
  Rng rng{42};
  expect_all_pairs_match(
      with_parallels_and_island(random_fabric(9, 8, 4), rng, 3), 16);
  expect_all_pairs_match(testbed_tree().realize_uniform(PodMode::kGlobal), 8);
}

TEST(KspOracle, ServerDestinationWithBannedHopsMatchesReference) {
  // A server reachable through two switches: the second path must step
  // off the first's switch, which bans the spur's hop to it.
  Graph g;
  const NodeId s = g.add_node(NodeRole::kServer);
  const NodeId a = g.add_node(NodeRole::kEdge);
  const NodeId b = g.add_node(NodeRole::kEdge);
  const NodeId c = g.add_node(NodeRole::kAgg);
  const NodeId t = g.add_node(NodeRole::kServer);
  g.add_link(s, a, 1e9);
  g.add_link(a, c, 1e9);
  g.add_link(c, b, 1e9);
  g.add_link(a, t, 1e9);
  g.add_link(b, t, 1e9);
  g.add_link(a, t, 1e9);  // parallel server link
  const KspSolver solver{g};
  const auto paths = solver.k_shortest_paths(s, t, 4);
  EXPECT_EQ(paths, reference::k_shortest_paths(g, s, t, 4));
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (Path{s, a, t}));
  EXPECT_EQ(paths[1], (Path{s, a, c, b, t}));
}

TEST(KspOracle, BadNodeIdThrowsLikeReference) {
  const Graph g = random_fabric(3, 6, 4);
  const KspSolver solver{g};
  const NodeId bad{static_cast<std::uint32_t>(g.node_count())};
  EXPECT_THROW((void)solver.shortest_path(NodeId{0}, bad),
               std::invalid_argument);
  EXPECT_THROW((void)solver.k_shortest_paths(bad, NodeId{0}, 4),
               std::invalid_argument);
  EXPECT_THROW((void)reference::k_shortest_paths(g, bad, NodeId{0}, 4),
               std::invalid_argument);
  // k = 0 returns before any validation, in both kernels.
  EXPECT_TRUE(solver.k_shortest_paths(bad, NodeId{0}, 0).empty());
}

// The work counters are a pure function of the pairs computed: a parallel
// precompute at any pool size sums to exactly the serial on-demand totals.
TEST(KspOracle, WorkCountersMatchAcrossPoolSizes) {
  const Graph g = random_fabric(11, 12, 6);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId a : g.switches()) {
    for (const NodeId b : g.switches()) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }

  KspStats direct;
  const KspSolver solver{g};
  for (const auto& [a, b] : pairs) {
    (void)solver.k_shortest_paths(a, b, 8, &direct);
  }
  EXPECT_GT(direct.spur_searches, 0u);
  EXPECT_GT(direct.bfs_expansions, direct.spur_searches);

  const auto totals = [](obs::MetricsRegistry& reg) {
    return std::pair{reg.counter("routing.ksp.spur_searches").value(),
                     reg.counter("routing.ksp.bfs_expansions").value()};
  };
  obs::MetricsRegistry serial_reg;
  PathCache serial{g, 8};
  serial.attach_obs(obs::ObsSink{&serial_reg, nullptr});
  for (const auto& [a, b] : pairs) (void)serial.switch_paths(a, b);
  EXPECT_EQ(totals(serial_reg),
            std::pair(direct.spur_searches, direct.bfs_expansions));

  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool{threads};
    obs::MetricsRegistry reg;
    PathCache cache{g, 8};
    cache.attach_obs(obs::ObsSink{&reg, nullptr});
    (void)cache.precompute(pairs, &pool);
    EXPECT_EQ(totals(reg), totals(serial_reg)) << threads << " threads";
  }
}

TEST(IsValidPath, EdgeCases) {
  Graph g;
  const NodeId s = g.add_node(NodeRole::kServer);
  const NodeId a = g.add_node(NodeRole::kEdge);
  const NodeId b = g.add_node(NodeRole::kEdge);
  const NodeId t = g.add_node(NodeRole::kServer);
  g.add_link(s, a, 1e9);
  g.add_link(a, b, 1e9);
  g.add_link(a, b, 1e9);  // parallel link: still one valid hop
  g.add_link(b, t, 1e9);
  g.add_link(t, a, 1e9);

  EXPECT_TRUE(is_valid_path(g, Path{s, a, b, t}));
  EXPECT_FALSE(is_valid_path(g, Path{a, b, a}));          // repeated node
  EXPECT_FALSE(is_valid_path(g, Path{s, a, s}));          // repeated endpoint
  EXPECT_FALSE(is_valid_path(g, Path{a, t, a}));          // repeated endpoint
  EXPECT_FALSE(is_valid_path(g, Path{s, a, t, b}));       // interior server
  EXPECT_FALSE(is_valid_path(g, Path{s, NodeId{99}}));    // out of range
  EXPECT_FALSE(is_valid_path(g, Path{NodeId{99}}));
  EXPECT_FALSE(is_valid_path(g, Path{}));
  EXPECT_FALSE(is_valid_path(g, Path{s, b}));  // not adjacent
  EXPECT_TRUE(is_valid_path(g, Path{s}));
  EXPECT_TRUE(is_valid_path(g, Path{a, b}));
}

}  // namespace
}  // namespace flattree
