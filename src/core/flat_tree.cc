#include "core/flat_tree.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace flattree {

const char* to_string(ConverterType type) {
  return type == ConverterType::kFourPort ? "4-port" : "6-port";
}

const char* to_string(ConverterConfig config) {
  switch (config) {
    case ConverterConfig::kDefault: return "default";
    case ConverterConfig::kLocal: return "local";
    case ConverterConfig::kSide: return "side";
    case ConverterConfig::kCross: return "cross";
  }
  return "?";
}

const char* to_string(PodMode mode) {
  switch (mode) {
    case PodMode::kClos: return "clos";
    case PodMode::kLocal: return "local";
    case PodMode::kGlobal: return "global";
  }
  return "?";
}

std::string mode_letters(const ModeAssignment& assignment) {
  std::string letters;
  for (const PodMode m : assignment.pod_modes) {
    letters += m == PodMode::kClos ? 'C' : (m == PodMode::kLocal ? 'L' : 'G');
  }
  return letters;
}

void FlatTreeParams::validate() const {
  clos.validate();
  if (clos.edge_per_pod % 2 != 0) {
    throw std::invalid_argument(
        "flat-tree: edge_per_pod must be even (left/right blades)");
  }
  const std::uint32_t g = clos.core_connectors_per_edge();
  if (m() + n() == 0) {
    throw std::invalid_argument("flat-tree: need at least one converter row");
  }
  if (m() + n() > g) {
    throw std::invalid_argument(
        "flat-tree: m + n (" + std::to_string(m() + n()) +
        ") exceeds core connectors per edge column (" + std::to_string(g) + ")");
  }
  if (m() + n() > clos.servers_per_edge) {
    throw std::invalid_argument(
        "flat-tree: m + n exceeds servers per edge switch");
  }
}

FlatTreeParams FlatTreeParams::defaults_for(const ClosParams& clos) {
  FlatTreeParams p;
  p.clos = clos;
  const std::uint32_t g = clos.core_connectors_per_edge();
  std::uint32_t m = std::max<std::uint32_t>(1, g / 4);
  std::uint32_t n = std::max<std::uint32_t>(1, g / 4);
  const std::uint32_t budget = std::min(g, clos.servers_per_edge);
  while (m + n > budget && n > 0) --n;
  while (m + n > budget && m > 0) --m;
  p.six_port_per_column = m;
  p.four_port_per_column = n;
  return p;
}

FlatTree::FlatTree(FlatTreeParams params) : params_{std::move(params)} {
  params_.validate();
  build_converters();
  wire_side_bundles();
}

void FlatTree::build_converters() {
  const ClosParams& c = params_.clos;
  const std::uint32_t d = c.edge_per_pod;
  const std::uint32_t r = c.r();
  const std::uint32_t m = params_.m();
  const std::uint32_t n = params_.n();

  converters_.reserve(static_cast<std::size_t>(c.pods) * d * (m + n));
  for (std::uint32_t pod = 0; pod < c.pods; ++pod) {
    // Blade B (6-port) first, column-major, then blade A (4-port); this
    // layout is what the side-bundle index arithmetic relies on.
    for (std::uint32_t col = 0; col < d; ++col) {
      for (std::uint32_t row = 0; row < m; ++row) {
        Converter conv;
        conv.type = ConverterType::kSixPort;
        conv.pod = PodId{pod};
        conv.row = row;
        conv.col = col;
        conv.edge = pod * d + col;
        conv.agg = pod * c.agg_per_pod + col / r;
        conv.core = core_for_slot(pod, col, row);
        conv.server = server_index(conv.edge, row);
        converters_.push_back(conv);
      }
    }
    for (std::uint32_t col = 0; col < d; ++col) {
      for (std::uint32_t row = 0; row < n; ++row) {
        Converter conv;
        conv.type = ConverterType::kFourPort;
        conv.pod = PodId{pod};
        conv.row = row;
        conv.col = col;
        conv.edge = pod * d + col;
        conv.agg = pod * c.agg_per_pod + col / r;
        conv.core = core_for_slot(pod, col, m + row);
        conv.server = server_index(conv.edge, m + row);
        converters_.push_back(conv);
      }
    }
  }
}

std::uint32_t FlatTree::core_for_slot(std::uint32_t pod, std::uint32_t col,
                                      std::uint32_t slot) const {
  const ClosParams& c = params_.clos;
  const std::uint32_t g = c.core_connectors_per_edge();
  if (slot >= g) throw std::invalid_argument("core_for_slot: slot >= h/r");
  // §3.2: column j's connectors land on the consecutive core group
  // [j*g, (j+1)*g) (mod cores); within the group, blade B then blade A then
  // aggregation connectors, rotated per Pod: pattern 1 advances by m each
  // Pod (packing blade B continuously), pattern 2 by m + 1.
  const std::uint32_t m = params_.m();
  const std::uint32_t step =
      params_.pattern == WiringPattern::kPattern1 ? m : m + 1;
  const std::uint32_t offset = (pod * step) % g;
  const std::uint32_t pos = (slot + offset) % g;
  return (col * g + pos) % c.cores;
}

void FlatTree::wire_side_bundles() {
  const ClosParams& c = params_.clos;
  const std::uint32_t d = c.edge_per_pod;
  const std::uint32_t half = d / 2;
  const std::uint32_t m = params_.m();
  const std::uint32_t n = params_.n();
  const std::size_t per_pod = static_cast<std::size_t>(d) * (m + n);

  const auto six_index = [&](std::uint32_t pod, std::uint32_t col,
                             std::uint32_t row) {
    return pod * per_pod + static_cast<std::size_t>(col) * m + row;
  };

  // §3.3: converter (i, j) on the left blade of Pod p+1 pairs with
  // converter (i, (d/2 - 1 - j + i) mod (d/2)) on the right blade of Pod p.
  // Pods are closed into a ring (Pod 0's left pairs with the last Pod's
  // right) so no side bundle dangles.
  for (std::uint32_t pod = 0; pod < c.pods; ++pod) {
    const std::uint32_t prev = (pod + c.pods - 1) % c.pods;
    for (std::uint32_t col = 0; col < half; ++col) {
      for (std::uint32_t row = 0; row < m; ++row) {
        const std::uint32_t peer_col = half + (half - 1 - col + row) % half;
        const std::size_t left = six_index(pod, col, row);
        const std::size_t right = six_index(prev, peer_col, row);
        converters_[left].side_peer =
            ConverterId{static_cast<std::uint32_t>(right)};
        converters_[right].side_peer =
            ConverterId{static_cast<std::uint32_t>(left)};
      }
    }
  }
}

std::vector<ConverterConfig> FlatTree::configs_for(
    const ModeAssignment& assignment) const {
  const ClosParams& c = params_.clos;
  if (assignment.pod_modes.size() != c.pods) {
    throw std::invalid_argument("configs_for: mode count != pod count");
  }
  // Local mode target: half of each edge switch's servers move to the
  // aggregation switch (§3.5); 4-port converters move servers first, then
  // 6-port converters cover the remainder.
  const std::uint32_t target = c.servers_per_edge / 2;
  const std::uint32_t t4 = std::min(params_.n(), target);
  const std::uint32_t t6 =
      std::min(params_.m(), target > t4 ? target - t4 : 0);

  std::vector<ConverterConfig> configs(converters_.size(),
                                       ConverterConfig::kDefault);
  for (std::size_t i = 0; i < converters_.size(); ++i) {
    const Converter& conv = converters_[i];
    const PodMode mode = assignment.pod_modes[conv.pod.index()];
    switch (mode) {
      case PodMode::kClos:
        configs[i] = ConverterConfig::kDefault;
        break;
      case PodMode::kLocal:
        if (conv.type == ConverterType::kFourPort) {
          configs[i] = conv.row < t4 ? ConverterConfig::kLocal
                                     : ConverterConfig::kDefault;
        } else {
          configs[i] = conv.row < t6 ? ConverterConfig::kLocal
                                     : ConverterConfig::kDefault;
        }
        break;
      case PodMode::kGlobal:
        if (conv.type == ConverterType::kFourPort) {
          configs[i] = ConverterConfig::kLocal;
        } else {
          const PodMode peer_mode =
              assignment.pod_modes[converter(conv.side_peer).pod.index()];
          if (peer_mode == PodMode::kGlobal) {
            configs[i] = conv.row % 2 == 0 ? ConverterConfig::kSide
                                           : ConverterConfig::kCross;
          } else {
            // Hybrid boundary: the side bundle would dangle; keep the
            // circuit useful by relocating the server locally instead.
            configs[i] = ConverterConfig::kLocal;
          }
        }
        break;
    }
  }
  return configs;
}

Graph FlatTree::realize(const std::vector<ConverterConfig>& configs) const {
  return realize_impl(configs, nullptr);
}

FlatTree::LowerRealization FlatTree::realize_lower(
    const std::vector<ConverterConfig>& configs) const {
  LowerRealization result;
  result.core_endpoints.resize(params_.clos.cores);
  result.graph = realize_impl(configs, &result.core_endpoints);
  return result;
}

Graph FlatTree::realize_impl(
    const std::vector<ConverterConfig>& configs,
    std::vector<std::vector<NodeId>>* core_endpoints) const {
  const ClosParams& c = params_.clos;
  if (configs.size() != converters_.size()) {
    throw std::invalid_argument("realize: config count != converter count");
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!is_legal_config(converters_[i].type, configs[i])) {
      throw std::invalid_argument(
          std::string("realize: illegal configuration ") +
          to_string(configs[i]) + " on a " + to_string(converters_[i].type) +
          " converter");
    }
  }

  Graph g;
  std::vector<NodeId> servers, edges, aggs, cores;
  for (std::uint32_t pod = 0; pod < c.pods; ++pod) {
    for (std::uint32_t e = 0; e < c.edge_per_pod; ++e) {
      for (std::uint32_t s = 0; s < c.servers_per_edge; ++s) {
        servers.push_back(g.add_node(NodeRole::kServer, PodId{pod}));
      }
    }
  }
  for (std::uint32_t pod = 0; pod < c.pods; ++pod) {
    for (std::uint32_t e = 0; e < c.edge_per_pod; ++e) {
      edges.push_back(g.add_node(NodeRole::kEdge, PodId{pod}));
    }
  }
  for (std::uint32_t pod = 0; pod < c.pods; ++pod) {
    for (std::uint32_t a = 0; a < c.agg_per_pod; ++a) {
      aggs.push_back(g.add_node(NodeRole::kAgg, PodId{pod}));
    }
  }
  if (core_endpoints == nullptr) {
    for (std::uint32_t core = 0; core < c.cores; ++core) {
      cores.push_back(g.add_node(NodeRole::kCore));
    }
  }

  // Either wires an endpoint to a core switch or, in multi-stage lower
  // realization, records it as that core connector's endpoint.
  const auto connect_core = [&](std::uint32_t core, NodeId endpoint) {
    if (core_endpoints == nullptr) {
      g.add_link(endpoint, cores[core], c.link_bps);
    } else {
      (*core_endpoints)[core].push_back(endpoint);
    }
  };

  // Edge-agg fabric: untouched by converters (§2.2 breaks only edge-server
  // and agg-core links).
  const std::uint32_t links_per_pair = c.edge_uplinks / c.agg_per_pod;
  for (std::uint32_t pod = 0; pod < c.pods; ++pod) {
    for (std::uint32_t e = 0; e < c.edge_per_pod; ++e) {
      for (std::uint32_t a = 0; a < c.agg_per_pod; ++a) {
        for (std::uint32_t l = 0; l < links_per_pair; ++l) {
          g.add_link(edges[pod * c.edge_per_pod + e],
                     aggs[pod * c.agg_per_pod + a], c.link_bps);
        }
      }
    }
  }

  // Servers beyond the converter rows stay on their edge switch.
  const std::uint32_t fixed_from = params_.m() + params_.n();
  for (std::uint32_t e = 0; e < c.total_edges(); ++e) {
    for (std::uint32_t s = fixed_from; s < c.servers_per_edge; ++s) {
      g.add_link(servers[server_index(e, s)], edges[e], c.link_bps);
    }
  }

  // Resolve converter circuits into direct links.
  for (std::size_t i = 0; i < converters_.size(); ++i) {
    const Converter& conv = converters_[i];
    const NodeId server = servers[conv.server];
    const NodeId edge = edges[conv.edge];
    const NodeId agg = aggs[conv.agg];
    switch (configs[i]) {
      case ConverterConfig::kDefault:
        g.add_link(edge, server, c.link_bps);
        connect_core(conv.core, agg);
        break;
      case ConverterConfig::kLocal:
        g.add_link(agg, server, c.link_bps);
        connect_core(conv.core, edge);
        break;
      case ConverterConfig::kSide:
      case ConverterConfig::kCross:
        connect_core(conv.core, server);
        break;  // side links handled pairwise below
    }
  }

  // Direct agg-core connectors (slots past the converter rows). Ordered
  // after the converter connectors so that, in multi-stage composition, the
  // endpoints an upper-stage blade receives first are the converter-borne
  // ones (relocated servers in global mode) rather than plain aggregation
  // uplinks.
  const std::uint32_t gg = c.core_connectors_per_edge();
  for (std::uint32_t pod = 0; pod < c.pods; ++pod) {
    for (std::uint32_t col = 0; col < c.edge_per_pod; ++col) {
      const std::uint32_t agg = pod * c.agg_per_pod + col / c.r();
      for (std::uint32_t slot = fixed_from; slot < gg; ++slot) {
        connect_core(core_for_slot(pod, col, slot), aggs[agg]);
      }
    }
  }

  // Side bundles, processed once per pair from the left-blade end.
  for (std::size_t i = 0; i < converters_.size(); ++i) {
    const Converter& conv = converters_[i];
    if (conv.type != ConverterType::kSixPort) continue;
    if (configs[i] != ConverterConfig::kSide &&
        configs[i] != ConverterConfig::kCross) {
      continue;
    }
    const Converter& peer = converter(conv.side_peer);
    const ConverterConfig peer_config = configs[conv.side_peer.index()];
    if (peer_config != configs[i]) {
      throw std::logic_error(
          "realize: side bundle configured " + std::string(to_string(configs[i])) +
          "/" + to_string(peer_config) +
          " — both ends of a bundle must match");
    }
    if (!conv.left_blade(c.edge_per_pod)) continue;  // links added once/pair
    const NodeId edge_a = edges[conv.edge];
    const NodeId agg_a = aggs[conv.agg];
    const NodeId edge_b = edges[peer.edge];
    const NodeId agg_b = aggs[peer.agg];
    if (configs[i] == ConverterConfig::kSide) {
      // Peer-wise: edge-edge and agg-agg across adjacent Pods.
      g.add_link(edge_a, edge_b, c.link_bps);
      g.add_link(agg_a, agg_b, c.link_bps);
    } else {
      // Crossed: edge-agg both ways.
      g.add_link(edge_a, agg_b, c.link_bps);
      g.add_link(agg_a, edge_b, c.link_bps);
    }
  }

  return g;
}

}  // namespace flattree
