// Yen's k-shortest loopless paths (§4.2, [50]) over the switch fabric.
//
// All routing in flat-tree's global and local modes is k-shortest-path based.
// Distances are hop counts. Paths transit switches only; endpoints may be
// servers. Results are deterministic: ties are broken by path length first,
// then lexicographic node order, so the same topology always yields the same
// path set (Observation 2 in §4.2.1 — "the k-shortest paths between server
// pairs are nearly deterministic").
//
// Kernel layout. Every Yen's spur search is one breadth-first search, and a
// k = 8 all-pairs compile runs millions of them, so the solver keeps the
// per-search work free of allocation and hashing:
//   * CSR adjacency. At construction the solver flattens each node's switch
//     peers, sorted by id and deduplicated (parallel links collapse), into
//     one array indexed by per-node offsets. Servers are never transited, so
//     they are left out; a server destination is found by an adjacency test
//     from each expanded node instead. Sorting happens once per graph, not
//     once per visit (PathCache's rebinds construct a fresh solver, so the
//     CSR follows the graph).
//   * Per-call workspace. Each k_shortest_paths call owns epoch-stamped
//     seen and ban arrays (a new epoch clears both in O(1)), a parent array,
//     a vector queue with a head index and the spur's banned next hops. Yen's
//     only bans edges leaving the spur node, so that list holds at most one
//     entry per accepted path. Nothing is shared between calls, so
//     concurrent calls on one const solver are race-free.
//   * Early exit. The search stops when dst is discovered instead of when it
//     is popped.
// The paths are the ones the straightforward kernel (kept in
// tests/ksp_reference.h as the differential oracle) returns, bit for bit:
// nodes are expanded in the same FIFO order and their peers scanned in the
// same sorted order, so every node gets the same parent, and dst's parent is
// fixed the moment it is discovered — popping it later changes nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/graph.h"
#include "obs/sink.h"
#include "routing/path.h"

namespace flattree {

namespace exec {
class ThreadPool;
}  // namespace exec

// Work done by one k_shortest_paths call: Yen's spur searches run, and
// nodes expanded (adjacency scanned) across every BFS of the call, the
// first shortest path included. Pure functions of (graph, src, dst, k), so
// sums over any set of pairs are independent of thread scheduling.
struct KspStats {
  std::uint64_t spur_searches{0};
  std::uint64_t bfs_expansions{0};
};

class KspSolver {
 public:
  // Builds the switch-peer CSR of `graph`; the solver reads `graph` later
  // (server destinations), so the caller keeps it alive.
  explicit KspSolver(const Graph& graph);

  // Lexicographically-smallest shortest path from src to dst, or nullopt if
  // disconnected.
  [[nodiscard]] std::optional<Path> shortest_path(NodeId src, NodeId dst) const;

  // Yen's algorithm: up to k loopless paths in nondecreasing length order.
  // Fewer than k are returned if the graph does not contain them. When
  // `stats` is non-null the call's work counters are added to it.
  [[nodiscard]] std::vector<Path> k_shortest_paths(
      NodeId src, NodeId dst, std::uint32_t k,
      KspStats* stats = nullptr) const;

 private:
  struct Workspace;

  void check_ids(NodeId src, NodeId dst) const;

  // One BFS from src to dst (src != dst) in a fresh epoch of `ws`:
  // `banned_nodes` may not be transited and src may not step to any node in
  // ws.banned_next. On success appends the path's nodes after src to `out`
  // and returns true.
  bool search(Workspace& ws, NodeId src, NodeId dst,
              std::span<const NodeId> banned_nodes, Path& out) const;

  const Graph* graph_;
  // CSR: node i's sorted, deduplicated switch peers are
  // peers_[offsets_[i]] .. peers_[offsets_[i + 1] - 1].
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> peers_;
  std::vector<std::uint8_t> transit_;  // 1 for switches
};

// One cache entry evicted by PathCache::rebind_and_invalidate, with the
// forwarding-rule footprint its old paths occupied (one rule per switch
// hop). This is what lets the controller price an incremental repair
// without replaying the full rule compilation.
struct EvictedPair {
  NodeId src{};
  NodeId dst{};
  std::uint64_t rules{0};
};

// Symmetric switch-switch adjacency changes between two graphs sharing node
// ids. Adjacency is existence-level: parallel links between the same switch
// pair collapse to one adjacency, so dropping one of two parallel links is
// no delta (path sets are hop-count based and cannot change). Pairs are
// reported with the smaller node id first.
struct AdjacencyDelta {
  std::vector<std::pair<NodeId, NodeId>> removed;  // in `from`, not in `to`
  std::vector<std::pair<NodeId, NodeId>> added;    // in `to`, not in `from`

  [[nodiscard]] bool empty() const { return removed.empty() && added.empty(); }
};
[[nodiscard]] AdjacencyDelta adjacency_delta(const Graph& from,
                                             const Graph& to);

// Memoizing façade: computes and caches the k-shortest switch-to-switch
// paths on demand. Experiments touch only the switch pairs their traffic
// uses, so lazy computation keeps large topologies tractable.
class PathCache {
 public:
  PathCache(const Graph& graph, std::uint32_t k)
      : graph_{&graph}, solver_{graph}, k_{k} {}

  // k-shortest paths between the attachment switches of two servers (or
  // between two switches if switch ids are passed). Cached.
  [[nodiscard]] const std::vector<Path>& switch_paths(NodeId src_switch,
                                                      NodeId dst_switch);

  // Full server-to-server paths (server endpoints attached to the cached
  // switch paths). Not cached; cheap to build.
  [[nodiscard]] std::vector<Path> server_paths(NodeId src_server,
                                               NodeId dst_server);

  [[nodiscard]] std::uint32_t k() const { return k_; }
  [[nodiscard]] std::size_t cached_pairs() const { return cache_.size(); }

  // Warms the cache for every pair in `pairs` (server or switch endpoints;
  // servers resolve to their attachment switches), fanning the per-pair
  // Yen's runs across `pool` (serial when null). Bit-identical to looking
  // the pairs up on demand: each pair's path set is a pure function of the
  // graph, and entries are inserted from a deterministic pair order.
  // Returns the number of newly computed pairs. Not thread-safe with
  // concurrent cache access; call it from one thread like every other
  // member.
  std::size_t precompute(std::span<const std::pair<NodeId, NodeId>> pairs,
                         exec::ThreadPool* pool = nullptr);

  // Incremental invalidation for failure repair: rebinds the cache (and
  // future computations) to `graph` — which must share node ids with the
  // current graph — and evicts exactly the entries broken by the change: a
  // pair is evicted if an endpoint is in `failed_switches` or any cached
  // path transits a failed switch or hops across a node pair that is no
  // longer adjacent. Surviving entries keep their paths, which stay valid
  // (though possibly no longer globally shortest — a full recompile
  // restores optimality). Returns the number of evicted pairs; if
  // `evicted_out` is non-null it receives each evicted pair with its old
  // rule footprint. The caller owns `graph` and must keep it alive while
  // the cache is in use.
  std::size_t rebind_and_invalidate(
      const Graph& graph, std::span<const NodeId> failed_switches,
      std::vector<EvictedPair>* evicted_out = nullptr);

  // Warm rebind under an edge-level delta (single- or few-edge fail /
  // recover / conversion rewire): computes the switch-adjacency delta
  // against the current graph and evicts the *provably minimal* exact set —
  //   * a pair whose cached path hops a removed adjacency (survivors of a
  //     pure removal are exact: the cached set was the (length, lex)-least
  //     k of a path universe the removal only shrank);
  //   * when adjacencies were added, a pair that could admit a better-or-
  //     tied path through a new edge: cached fewer than k paths, or
  //     min(d(s,u)+1+d(v,t), d(s,v)+1+d(u,t)) <= length of its k-th cached
  //     path (d = switch-transit hop distance on the new graph, one BFS per
  //     new-edge endpoint). Strictly longer candidates cannot displace any
  //     cached path, ties might via lexicographic order, so <= evicts.
  // Surviving entries are byte-identical to a cold recompute on `graph`
  // (pinned by tests/test_ksp_properties.cc WarmDeltaMatchesCold*); evicted
  // pairs recompute lazily on next lookup. Returns the eviction count.
  std::size_t rebind_warm(const Graph& graph);

  void clear() { cache_.clear(); }

  // Caches routing.ksp.* metric handles (cache hits/misses, pairs computed,
  // pairs evicted by repairs, and the computed pairs' spur searches and BFS
  // expansions). Counting does not change lookup results; detached (the
  // default) the cache touches no metrics.
  void attach_obs(const obs::ObsSink& sink);

 private:
  // Adds one computed pair's KspStats to the attached counters.
  void count(const KspStats& stats);

  const Graph* graph_;
  KspSolver solver_;
  std::uint32_t k_;
  std::unordered_map<std::uint64_t, std::vector<Path>> cache_;
  obs::Counter* c_hits_{nullptr};
  obs::Counter* c_misses_{nullptr};
  obs::Counter* c_computed_{nullptr};
  obs::Counter* c_evicted_{nullptr};
  obs::Counter* c_spur_searches_{nullptr};
  obs::Counter* c_bfs_expansions_{nullptr};
};

}  // namespace flattree
