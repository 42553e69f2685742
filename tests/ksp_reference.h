// Reference Yen's k-shortest paths: the straightforward kernel KspSolver
// replaced, kept only as the differential oracle for tests/test_ksp_oracle.cc.
//
// Every spur search builds hash sets of its banned nodes and edges, runs a
// std::deque BFS that collects, sorts and deduplicates each visited node's
// neighbours, and stops when dst is popped. It is slow and obviously
// correct; KspSolver must return exactly the same paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "net/graph.h"
#include "routing/path.h"

namespace flattree::reference {

using EdgeKey = std::uint64_t;

inline EdgeKey edge_key(NodeId from, NodeId to) {
  return (static_cast<EdgeKey>(from.value()) << 32) | to.value();
}

// Lexicographically-smallest shortest path from src to dst that transits no
// node of `banned_nodes` and uses no directed hop of `banned_edges`.
inline std::optional<Path> constrained_shortest(
    const Graph& g, NodeId src, NodeId dst,
    const std::unordered_set<NodeId>& banned_nodes,
    const std::unordered_set<EdgeKey>& banned_edges) {
  if (src.index() >= g.node_count() || dst.index() >= g.node_count()) {
    throw std::invalid_argument("shortest_path: bad node id");
  }
  if (src == dst) return Path{src};
  if (banned_nodes.contains(dst)) return std::nullopt;

  std::vector<NodeId> parent(g.node_count(), NodeId::invalid());
  std::vector<bool> visited(g.node_count(), false);
  std::deque<NodeId> queue;
  queue.push_back(src);
  visited[src.index()] = true;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (u == dst) break;
    // Traffic transits switches only.
    if (u != src && !is_switch(g.node(u).role)) continue;
    std::vector<NodeId> next;
    for (const Adjacency& adj : g.neighbors(u)) {
      if (visited[adj.peer.index()]) continue;
      if (banned_nodes.contains(adj.peer)) continue;
      if (banned_edges.contains(edge_key(u, adj.peer))) continue;
      next.push_back(adj.peer);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    for (NodeId v : next) {
      visited[v.index()] = true;
      parent[v.index()] = u;
      queue.push_back(v);
    }
  }
  if (!visited[dst.index()]) return std::nullopt;
  Path path;
  for (NodeId n = dst; n.valid(); n = parent[n.index()]) path.push_back(n);
  std::reverse(path.begin(), path.end());
  return path;
}

inline std::optional<Path> shortest_path(const Graph& g, NodeId src,
                                         NodeId dst) {
  return constrained_shortest(g, src, dst, {}, {});
}

inline std::vector<Path> k_shortest_paths(const Graph& g, NodeId src,
                                          NodeId dst, std::uint32_t k) {
  std::vector<Path> result;
  if (k == 0) return result;
  auto first = shortest_path(g, src, dst);
  if (!first) return result;
  result.push_back(std::move(*first));

  // Candidates ordered by (length, lexicographic), deduplicated.
  auto cmp = [](const Path& a, const Path& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  };
  std::set<Path, decltype(cmp)> candidates(cmp);
  while (result.size() < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const std::span<const NodeId> root{prev.data(), i + 1};
      std::unordered_set<EdgeKey> banned_edges;
      for (const Path& p : result) {
        if (p.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.begin())) {
          banned_edges.insert(edge_key(p[i], p[i + 1]));
        }
      }
      std::unordered_set<NodeId> banned_nodes;
      for (std::size_t j = 0; j < i; ++j) banned_nodes.insert(prev[j]);

      const auto spur_path =
          constrained_shortest(g, spur, dst, banned_nodes, banned_edges);
      if (!spur_path) continue;
      Path total(root.begin(), root.end());
      total.insert(total.end(), spur_path->begin() + 1, spur_path->end());
      if (std::none_of(result.begin(), result.end(),
                       [&](const Path& p) { return p == total; })) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

}  // namespace flattree::reference
