#include "net/stats.h"

#include <algorithm>
#include <stdexcept>

namespace flattree {

PathLengthStats compute_path_length_stats(const Graph& graph) {
  PathLengthStats stats;
  const auto switches = graph.switches();
  if (switches.size() < 2) return stats;

  // Servers attached per switch, so server-pair averages can be computed
  // from one BFS per switch instead of one per server.
  std::vector<std::uint64_t> server_count(graph.node_count(), 0);
  std::uint64_t total_servers = 0;
  for (NodeId server : graph.servers()) {
    ++server_count[graph.attachment_switch(server).index()];
    ++total_servers;
  }

  long double switch_hop_sum = 0;
  std::uint64_t switch_pairs = 0;
  long double server_hop_sum = 0;
  std::uint64_t server_pairs = 0;

  for (NodeId src : switches) {
    const auto dist = graph.bfs_distances(src);
    const std::uint64_t src_servers = server_count[src.index()];
    for (NodeId dst : switches) {
      if (dst == src) {
        // Distinct servers under the same switch are 2 hops apart.
        const std::uint64_t pairs = src_servers * (src_servers - 1);
        server_hop_sum += 2.0L * static_cast<long double>(pairs);
        server_pairs += pairs;
        continue;
      }
      const std::uint32_t d = dist[dst.index()];
      if (d == Graph::kUnreachable) {
        throw std::logic_error("path stats on a disconnected graph");
      }
      switch_hop_sum += d;
      ++switch_pairs;
      if (d > stats.diameter) stats.diameter = d;
      ++stats.switch_hop_histogram[d];

      const std::uint64_t pairs = src_servers * server_count[dst.index()];
      server_hop_sum += static_cast<long double>(d + 2) * pairs;
      server_pairs += pairs;
    }
  }

  stats.avg_switch_pair_hops =
      static_cast<double>(switch_hop_sum / static_cast<long double>(switch_pairs));
  if (server_pairs > 0) {
    stats.avg_server_pair_hops =
        static_cast<double>(server_hop_sum / static_cast<long double>(server_pairs));
  }
  return stats;
}

std::vector<std::size_t> servers_per_switch(const Graph& graph, NodeRole role) {
  std::vector<std::size_t> counts(graph.count_role(role), 0);
  for (NodeId sw : graph.nodes_with_role(role)) {
    counts[graph.node(sw).index_in_role] = graph.attached_servers(sw).size();
  }
  return counts;
}

std::vector<std::size_t> links_by_peer_role(const Graph& graph, NodeRole role,
                                            NodeRole peer_role) {
  std::vector<std::size_t> counts(graph.count_role(role), 0);
  for (NodeId sw : graph.nodes_with_role(role)) {
    std::size_t n = 0;
    for (const Adjacency& adj : graph.neighbors(sw)) {
      if (graph.node(adj.peer).role == peer_role) ++n;
    }
    counts[graph.node(sw).index_in_role] = n;
  }
  return counts;
}

double core_link_capacity(const Graph& graph) {
  double total = 0;
  for (std::size_t i = 0; i < graph.link_count(); ++i) {
    const Link& l = graph.link(LinkId{static_cast<std::uint32_t>(i)});
    if (graph.node(l.a).role == NodeRole::kCore ||
        graph.node(l.b).role == NodeRole::kCore) {
      total += l.capacity_bps;
    }
  }
  return total;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

}  // namespace flattree
