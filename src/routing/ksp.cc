#include "routing/ksp.h"

#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "exec/parallel.h"

namespace flattree {
namespace {

// Total order on paths: length first, then node values lexicographically.
// Used both for candidate selection in Yen's algorithm and for result
// determinism.
struct PathLess {
  bool operator()(const Path& a, const Path& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

// Existence-level switch-switch adjacency keys of g (smaller id first).
std::set<std::uint64_t> switch_adjacencies(const Graph& g) {
  std::set<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if (!is_switch(g.node(l.a).role) || !is_switch(g.node(l.b).role)) continue;
    const std::uint32_t lo = std::min(l.a.value(), l.b.value());
    const std::uint32_t hi = std::max(l.a.value(), l.b.value());
    keys.insert((static_cast<std::uint64_t>(lo) << 32) | hi);
  }
  return keys;
}

}  // namespace

AdjacencyDelta adjacency_delta(const Graph& from, const Graph& to) {
  if (from.node_count() != to.node_count()) {
    throw std::invalid_argument("adjacency_delta: node ids must be shared");
  }
  const std::set<std::uint64_t> before = switch_adjacencies(from);
  const std::set<std::uint64_t> after = switch_adjacencies(to);
  AdjacencyDelta delta;
  const auto unpack = [](std::uint64_t key) {
    return std::pair{NodeId{static_cast<std::uint32_t>(key >> 32)},
                     NodeId{static_cast<std::uint32_t>(key & 0xffffffffu)}};
  };
  for (const std::uint64_t key : before) {
    if (!after.contains(key)) delta.removed.push_back(unpack(key));
  }
  for (const std::uint64_t key : after) {
    if (!before.contains(key)) delta.added.push_back(unpack(key));
  }
  return delta;
}

struct KspSolver::Workspace {
  explicit Workspace(std::size_t nodes)
      : seen(nodes, 0), banned(nodes, 0), parent(nodes) {
    queue.reserve(nodes);
  }

  // A node is seen / banned in the current search iff its stamp equals
  // `epoch`; bumping the epoch clears both arrays in O(1).
  std::vector<std::uint32_t> seen;
  std::vector<std::uint32_t> banned;
  std::uint32_t epoch{0};
  std::vector<NodeId> parent;       // valid where seen
  std::vector<NodeId> queue;        // BFS frontier, consumed from a head index
  std::vector<NodeId> banned_next;  // next hops src may not take
  Path path;                        // candidate being assembled
  KspStats stats;
};

KspSolver::KspSolver(const Graph& graph) : graph_{&graph} {
  const std::size_t n = graph.node_count();
  transit_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    transit_[i] = is_switch(graph.node(NodeId{i}).role) ? 1 : 0;
  }
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto begin = static_cast<std::ptrdiff_t>(peers_.size());
    for (const Adjacency& adj : graph.neighbors(NodeId{i})) {
      if (transit_[adj.peer.index()] != 0) peers_.push_back(adj.peer);
    }
    std::sort(peers_.begin() + begin, peers_.end());
    peers_.erase(std::unique(peers_.begin() + begin, peers_.end()),
                 peers_.end());
    offsets_.push_back(static_cast<std::uint32_t>(peers_.size()));
  }
}

bool KspSolver::search(Workspace& ws, NodeId src, NodeId dst,
                       std::span<const NodeId> banned_nodes, Path& out) const {
  const std::uint32_t epoch = ++ws.epoch;
  for (const NodeId n : banned_nodes) ws.banned[n.index()] = epoch;
  if (ws.banned[dst.index()] == epoch) return false;

  // Servers are never transited, so a server dst is in no CSR row; it is
  // discovered from the first expanded node adjacent to it.
  const bool server_dst = transit_[dst.index()] == 0;
  const auto adjacent_to_dst = [&](NodeId u) {
    for (const Adjacency& adj : graph_->neighbors(dst)) {
      if (adj.peer == u) return true;
    }
    return false;
  };
  const auto banned_hop = [&](NodeId u, NodeId v) {
    return u == src && std::find(ws.banned_next.begin(), ws.banned_next.end(),
                                 v) != ws.banned_next.end();
  };

  ws.queue.clear();
  ws.queue.push_back(src);
  ws.seen[src.index()] = epoch;
  bool found = false;
  for (std::size_t head = 0; head < ws.queue.size() && !found; ++head) {
    const NodeId u = ws.queue[head];
    ++ws.stats.bfs_expansions;
    if (server_dst && adjacent_to_dst(u) && !banned_hop(u, dst)) {
      ws.parent[dst.index()] = u;
      found = true;
      break;
    }
    const std::uint32_t row_end = offsets_[u.index() + 1];
    for (std::uint32_t e = offsets_[u.index()]; e < row_end; ++e) {
      const NodeId v = peers_[e];
      if (ws.seen[v.index()] == epoch || ws.banned[v.index()] == epoch) {
        continue;
      }
      if (banned_hop(u, v)) continue;
      ws.seen[v.index()] = epoch;
      ws.parent[v.index()] = u;
      if (v == dst) {
        found = true;
        break;
      }
      ws.queue.push_back(v);
    }
  }
  if (!found) return false;
  const std::size_t begin = out.size();
  for (NodeId n = dst; n != src; n = ws.parent[n.index()]) out.push_back(n);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  return true;
}

void KspSolver::check_ids(NodeId src, NodeId dst) const {
  if (src.index() >= graph_->node_count() ||
      dst.index() >= graph_->node_count()) {
    throw std::invalid_argument("shortest_path: bad node id");
  }
}

std::optional<Path> KspSolver::shortest_path(NodeId src, NodeId dst) const {
  check_ids(src, dst);
  if (src == dst) return Path{src};
  Workspace ws{graph_->node_count()};
  Path path{src};
  if (!search(ws, src, dst, {}, path)) return std::nullopt;
  return path;
}

std::vector<Path> KspSolver::k_shortest_paths(NodeId src, NodeId dst,
                                              std::uint32_t k,
                                              KspStats* stats) const {
  std::vector<Path> result;
  if (k == 0) return result;
  check_ids(src, dst);
  if (src == dst) {
    result.push_back(Path{src});
    return result;
  }
  Workspace ws{graph_->node_count()};
  Path first{src};
  if (search(ws, src, dst, {}, first)) result.push_back(std::move(first));

  // Candidates ordered by (length, lexicographic), deduplicated.
  std::set<Path, PathLess> candidates;
  while (!result.empty() && result.size() < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      // Root prev[0..i]; Yen's bans the root's other nodes and, out of the
      // spur prev[i], the next hop of every accepted path sharing the root.
      const auto root_end = prev.begin() + static_cast<std::ptrdiff_t>(i + 1);
      ws.banned_next.clear();
      for (const Path& p : result) {
        if (p.size() > i + 1 && std::equal(prev.begin(), root_end, p.begin())) {
          ws.banned_next.push_back(p[i + 1]);
        }
      }
      ++ws.stats.spur_searches;
      ws.path.assign(prev.begin(), root_end);
      if (!search(ws, prev[i], dst, {prev.data(), i}, ws.path)) continue;
      if (std::find(result.begin(), result.end(), ws.path) == result.end()) {
        candidates.insert(ws.path);
      }
    }
    if (candidates.empty()) break;
    result.push_back(std::move(candidates.extract(candidates.begin()).value()));
  }
  if (stats != nullptr) {
    stats->spur_searches += ws.stats.spur_searches;
    stats->bfs_expansions += ws.stats.bfs_expansions;
  }
  return result;
}

void PathCache::attach_obs(const obs::ObsSink& sink) {
  obs::MetricsRegistry* reg = sink.metrics();
  if (reg == nullptr) {
    c_hits_ = c_misses_ = c_computed_ = c_evicted_ = nullptr;
    c_spur_searches_ = c_bfs_expansions_ = nullptr;
    return;
  }
  c_hits_ = &reg->counter("routing.ksp.cache_hits");
  c_misses_ = &reg->counter("routing.ksp.cache_misses");
  c_computed_ = &reg->counter("routing.ksp.pairs_computed");
  c_evicted_ = &reg->counter("routing.ksp.pairs_evicted");
  c_spur_searches_ = &reg->counter("routing.ksp.spur_searches");
  c_bfs_expansions_ = &reg->counter("routing.ksp.bfs_expansions");
}

void PathCache::count(const KspStats& stats) {
  obs::add(c_computed_);
  obs::add(c_spur_searches_, stats.spur_searches);
  obs::add(c_bfs_expansions_, stats.bfs_expansions);
}

const std::vector<Path>& PathCache::switch_paths(NodeId src_switch,
                                                 NodeId dst_switch) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src_switch.value()) << 32) |
      dst_switch.value();
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    obs::add(c_hits_);
    return it->second;
  }
  obs::add(c_misses_);
  KspStats stats;
  auto paths = solver_.k_shortest_paths(src_switch, dst_switch, k_, &stats);
  count(stats);
  return cache_.emplace(key, std::move(paths)).first->second;
}

std::size_t PathCache::precompute(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    exec::ThreadPool* pool) {
  // Resolve endpoints to switch pairs, drop same-switch pairs (server_paths
  // synthesizes those without touching the cache), and dedup against both
  // the cache and earlier entries, preserving first-seen order.
  std::vector<std::pair<NodeId, NodeId>> todo;
  std::unordered_set<std::uint64_t> seen;
  todo.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    const NodeId src =
        is_switch(graph_->node(a).role) ? a : graph_->attachment_switch(a);
    const NodeId dst =
        is_switch(graph_->node(b).role) ? b : graph_->attachment_switch(b);
    if (src == dst) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
    if (cache_.contains(key) || !seen.insert(key).second) continue;
    todo.emplace_back(src, dst);
  }

  // The per-pair Yen's runs only read the solver (each call owns its
  // workspace), so they fan out safely; insertion and counting stay serial
  // because the map is not thread-safe and the sums stay in pair order.
  std::vector<std::pair<std::vector<Path>, KspStats>> computed =
      exec::parallel_map(pool, todo.size(), [this, &todo](std::size_t i) {
        KspStats stats;
        auto paths = solver_.k_shortest_paths(todo[i].first, todo[i].second,
                                              k_, &stats);
        return std::pair{std::move(paths), stats};
      });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(todo[i].first.value()) << 32) |
        todo[i].second.value();
    cache_.emplace(key, std::move(computed[i].first));
    count(computed[i].second);
  }
  return todo.size();
}

std::size_t PathCache::rebind_and_invalidate(
    const Graph& graph, std::span<const NodeId> failed_switches,
    std::vector<EvictedPair>* evicted_out) {
  if (graph.node_count() != graph_->node_count()) {
    throw std::invalid_argument(
        "PathCache::rebind_and_invalidate: node ids must be shared");
  }
  graph_ = &graph;
  solver_ = KspSolver{graph};
  std::vector<bool> failed(graph.node_count(), false);
  for (NodeId id : failed_switches) failed[id.index()] = true;
  const auto broken = [&](const Path& path) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (failed[path[i].index()]) return true;
      if (i + 1 < path.size() && !graph.adjacent(path[i], path[i + 1])) {
        return true;
      }
    }
    return false;
  };
  std::size_t evicted = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    const bool evict = it->second.empty() ||
                       std::any_of(it->second.begin(), it->second.end(), broken);
    if (evict) {
      if (evicted_out != nullptr) {
        EvictedPair pair;
        pair.src = NodeId{static_cast<std::uint32_t>(it->first >> 32)};
        pair.dst = NodeId{static_cast<std::uint32_t>(it->first & 0xffffffffu)};
        for (const Path& path : it->second) {
          if (!path.empty()) pair.rules += path.size() - 1;
        }
        evicted_out->push_back(pair);
      }
      it = cache_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  obs::add(c_evicted_, evicted);
  return evicted;
}

std::size_t PathCache::rebind_warm(const Graph& graph) {
  if (graph.node_count() != graph_->node_count()) {
    throw std::invalid_argument(
        "PathCache::rebind_warm: node ids must be shared");
  }
  const AdjacencyDelta delta = adjacency_delta(*graph_, graph);
  graph_ = &graph;
  solver_ = KspSolver{graph};
  if (delta.empty()) return 0;

  // Directed lookup set for removed adjacencies (cached paths hop either
  // direction).
  std::unordered_set<std::uint64_t> removed;
  for (const auto& [a, b] : delta.removed) {
    removed.insert((static_cast<std::uint64_t>(a.value()) << 32) | b.value());
    removed.insert((static_cast<std::uint64_t>(b.value()) << 32) | a.value());
  }
  const auto hops_removed = [&](const Path& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(path[i].value()) << 32) |
          path[i + 1].value();
      if (removed.contains(key)) return true;
    }
    return false;
  };

  // Switch-transit hop distances on the new graph from every endpoint of an
  // added adjacency — one BFS per distinct endpoint, O(1) per cached pair
  // afterwards.
  constexpr std::uint32_t kInf = 0xFFFFFFFFu;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> dist;
  const auto bfs_from = [&](NodeId start) -> const std::vector<std::uint32_t>& {
    const auto it = dist.find(start.value());
    if (it != dist.end()) return it->second;
    std::vector<std::uint32_t> d(graph.node_count(), kInf);
    std::deque<NodeId> queue;
    d[start.index()] = 0;
    queue.push_back(start);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const Adjacency& adj : graph.neighbors(u)) {
        if (!is_switch(graph.node(adj.peer).role)) continue;
        if (d[adj.peer.index()] != kInf) continue;
        d[adj.peer.index()] = d[u.index()] + 1;
        queue.push_back(adj.peer);
      }
    }
    return dist.emplace(start.value(), std::move(d)).first->second;
  };

  std::size_t evicted = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    const NodeId src{static_cast<std::uint32_t>(it->first >> 32)};
    const NodeId dst{static_cast<std::uint32_t>(it->first & 0xffffffffu)};
    const std::vector<Path>& paths = it->second;
    bool evict =
        std::any_of(paths.begin(), paths.end(), hops_removed);
    if (!evict && !delta.added.empty()) {
      if (paths.size() < k_) {
        // A new edge can only add paths; a short set may grow.
        evict = true;
      } else {
        // Paths are (length, lex)-sorted, so the last one is the k-th
        // best. A candidate through a new edge displaces a cached path
        // only if it is no longer than that (ties displace via lex order).
        const std::uint64_t kth = path_length(paths.back());
        for (const auto& [u, v] : delta.added) {
          const std::vector<std::uint32_t>& du = bfs_from(u);
          const std::vector<std::uint32_t>& dv = bfs_from(v);
          const auto through = [&](const std::vector<std::uint32_t>& a,
                                   const std::vector<std::uint32_t>& b) {
            if (a[src.index()] == kInf || b[dst.index()] == kInf) {
              return std::uint64_t{kInf} + kInf;
            }
            return static_cast<std::uint64_t>(a[src.index()]) + 1 +
                   b[dst.index()];
          };
          if (std::min(through(du, dv), through(dv, du)) <= kth) {
            evict = true;
            break;
          }
        }
      }
    }
    if (evict) {
      it = cache_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  obs::add(c_evicted_, evicted);
  return evicted;
}

std::vector<Path> PathCache::server_paths(NodeId src_server,
                                          NodeId dst_server) {
  const NodeId src_sw = graph_->attachment_switch(src_server);
  const NodeId dst_sw = graph_->attachment_switch(dst_server);
  std::vector<Path> result;
  if (src_sw == dst_sw) {
    // Same-rack pair: the single two-hop path through the shared switch.
    result.push_back(Path{src_server, src_sw, dst_server});
    return result;
  }
  for (const Path& sw_path : switch_paths(src_sw, dst_sw)) {
    result.push_back(with_server_endpoints(src_server, sw_path, dst_server));
  }
  return result;
}

}  // namespace flattree
