#include "control/serving_state.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace flattree {

const ControlPartition* partition_at(
    std::span<const ControlPartition> partitions, PodId pod, double t) {
  for (const ControlPartition& p : partitions) {
    if (p.pod == pod && t >= p.start_s && (p.end_s < 0.0 || t < p.end_s)) {
      return &p;
    }
  }
  return nullptr;
}

void validate_partitions(std::span<const ControlPartition> partitions,
                         std::uint32_t pods, const char* who) {
  const auto require = [who](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string{who} + ": " + what);
  };
  // Written so NaN fails the bounds too.
  for (const ControlPartition& p : partitions) {
    require(p.pod.valid() && p.pod.value() < pods,
            "partition pod out of range");
    require(p.start_s >= 0.0, "partition start_s must be >= 0");
    require(p.end_s < 0.0 || p.end_s > p.start_s,
            "partition must end after it starts");
  }
}

bool all_valid_on(const Graph& g, const std::vector<Path>& paths) {
  return !paths.empty() &&
         std::all_of(paths.begin(), paths.end(),
                     [&](const Path& p) { return is_valid_path(g, p); });
}

std::vector<Path> targeted_patch(const std::vector<Path>& installed,
                                 const Graph& g, const std::vector<Path>& pool,
                                 std::size_t want) {
  std::vector<Path> next;
  for (const Path& p : installed) {
    if (is_valid_path(g, p)) next.push_back(p);
  }
  for (const Path& p : pool) {
    if (next.size() >= want) break;
    if (std::find(next.begin(), next.end(), p) == next.end()) {
      next.push_back(p);
    }
  }
  return next;
}

namespace {

std::size_t invalid_paths(const Graph& g, const std::vector<Path>& paths) {
  return static_cast<std::size_t>(
      std::count_if(paths.begin(), paths.end(),
                    [&](const Path& p) { return !is_valid_path(g, p); }));
}

}  // namespace

void charge_darkness(std::vector<double>& dark, const Graph& g,
                     const std::vector<std::vector<Path>>& routes, double dt) {
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const std::vector<Path>& rs = routes[i];
    if (rs.empty()) {
      dark[i] += dt;
    } else if (const std::size_t n = invalid_paths(g, rs); n != 0) {
      dark[i] += dt * static_cast<double>(n) / static_cast<double>(rs.size());
    }
  }
}

ServingState::ServingState(const CompiledMode& mode,
                           std::span<const std::pair<NodeId, NodeId>> pairs)
    : reference{&mode.graph()}, k{mode.k()}, pairs{pairs} {
  reset(mode.graph_ptr(), resolve(mode));
}

std::vector<std::vector<Path>> ServingState::resolve(
    const CompiledMode& mode) const {
  std::vector<std::vector<Path>> rs;
  rs.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) {
    rs.push_back(mode.paths().server_paths(src, dst));
  }
  return rs;
}

void ServingState::reset(std::shared_ptr<const Graph> realization,
                         std::vector<std::vector<Path>> plan) {
  graph = std::move(realization);
  routes = std::move(plan);
  canonical = routes;
  diverged.assign(pairs.size(), false);
  refresh_live();
}

void ServingState::fold(const FailureSchedule& storm, double t) {
  active = storm.active_at(t);
  refresh_live();
}

void ServingState::refresh_live() {
  live_cache_.reset();
  live = active.empty() ? graph
                        : std::make_shared<const Graph>(
                              degrade_mapped(*graph, *reference, active));
}

double ServingState::dark(std::size_t i) const {
  const std::vector<Path>& rs = routes[i];
  if (rs.empty()) return 1.0;
  return static_cast<double>(invalid_paths(*live, rs)) /
         static_cast<double>(rs.size());
}

void ServingState::reconcile(std::size_t i) {
  routes[i] = canonical[i];
  diverged[i] = false;
}

std::vector<Path> ServingState::paths_on(std::optional<PathCache>& cache,
                                         const Graph& g, NodeId src,
                                         NodeId dst) const {
  if (g.degree(src) == 0 || g.degree(dst) == 0) return {};
  if (!cache.has_value()) cache.emplace(g, k);
  return cache->server_paths(src, dst);
}

}  // namespace flattree
