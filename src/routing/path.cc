#include "routing/path.h"

#include <algorithm>

namespace flattree {

bool is_valid_path(const Graph& graph, std::span<const NodeId> path) {
  if (path.empty()) return false;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeId n = path[i];
    if (n.index() >= graph.node_count()) return false;
    // Loop check against the prefix: paths are a handful of hops, so a scan
    // beats building a hash set per call.
    const auto prefix = path.first(i);
    if (std::find(prefix.begin(), prefix.end(), n) != prefix.end()) {
      return false;
    }
    const bool interior = i > 0 && i + 1 < path.size();
    if (interior && !is_switch(graph.node(n).role)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    bool adjacent = false;
    for (const Adjacency& adj : graph.neighbors(path[i])) {
      if (adj.peer == path[i + 1]) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) return false;
  }
  return true;
}

Path with_server_endpoints(NodeId src_server,
                           std::span<const NodeId> switch_path,
                           NodeId dst_server) {
  Path full;
  full.reserve(switch_path.size() + 2);
  full.push_back(src_server);
  full.insert(full.end(), switch_path.begin(), switch_path.end());
  full.push_back(dst_server);
  return full;
}

}  // namespace flattree
