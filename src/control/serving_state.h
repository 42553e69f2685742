// The serving route state of a control plane: what the data plane runs on
// while converters move and storm failures come and go.
//
// The conversion executor (conversion_exec.cc) and the control hierarchy
// (hierarchy.cc) each hold one ServingState and share every operation on
// it: the storm fold, the live refresh, a pair's darkness and its
// integral, reconcile-to-plan, the targeted patch, the cached path lookup
// on the live graph, and the control-partition window lookup and
// validation. What differs between them is only *when* they call these:
// the executor at its step boundaries, the hierarchy on its own event
// queue of storm batches, heartbeats, rejoins and repair installs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "control/controller.h"
#include "net/failures.h"
#include "net/graph.h"
#include "routing/ksp.h"
#include "routing/path.h"

namespace flattree {

// One control-network partition window: the Pod's switches are unreachable
// from the root controller for t in [start_s, end_s) (end_s < 0 = never
// heals). Core switches have no Pod and are never partitioned.
struct ControlPartition {
  PodId pod{};
  double start_s{0.0};
  double end_s{-1.0};
};

// The window of `partitions` covering time t for `pod`, or nullptr.
[[nodiscard]] const ControlPartition* partition_at(
    std::span<const ControlPartition> partitions, PodId pod, double t);

// Throws std::invalid_argument, its message prefixed with `who`, unless
// every window names a Pod below `pods`, starts at >= 0 and ends after it
// starts (or never). NaN is rejected.
void validate_partitions(std::span<const ControlPartition> partitions,
                         std::uint32_t pods, const char* who);

// True when `paths` is non-empty and every path is valid on g.
[[nodiscard]] bool all_valid_on(const Graph& g, const std::vector<Path>& paths);

// The targeted patch of an installed route set: its paths still valid on g
// stay installed, and the set is topped back up to `want` from `pool`
// (skipping duplicates).
[[nodiscard]] std::vector<Path> targeted_patch(
    const std::vector<Path>& installed, const Graph& g,
    const std::vector<Path>& pool, std::size_t want);

// Charges each pair of `routes` its darkness on g over an interval of dt
// seconds (the route-availability integral): a pair with one of four ECMP
// paths dead is charged a quarter of dt — the flows hashed onto the dead
// path black-hole until it is patched or the link recovers.
void charge_darkness(std::vector<double>& dark, const Graph& g,
                     const std::vector<std::vector<Path>>& routes, double dt);

struct ServingState {
  // Serves `mode`'s plan routes for `pairs` (which must outlive the state)
  // on its clean realization. Storm link ids name links of mode's graph,
  // the reference space.
  ServingState(const CompiledMode& mode,
               std::span<const std::pair<NodeId, NodeId>> pairs);

  const Graph* reference;  // storm id space: the origin realization
  std::uint32_t k;  // paths per pair in the path lookups
  std::span<const std::pair<NodeId, NodeId>> pairs;  // tracked server pairs
  std::shared_ptr<const Graph> graph;  // current clean realization
  std::shared_ptr<const Graph> live;   // graph minus the active failures
  FailureSet active;                   // sorted, reference space
  std::vector<std::vector<Path>> routes;     // installed, parallel to pairs
  std::vector<std::vector<Path>> canonical;  // the plan absent any storm
  std::vector<bool> diverged;  // installed off-plan because of a storm

  // `mode`'s plan routes for every pair.
  [[nodiscard]] std::vector<std::vector<Path>> resolve(
      const CompiledMode& mode) const;

  // Adopts a new realization and plan: every pair back on plan, the live
  // graph rebuilt under the current active set.
  void reset(std::shared_ptr<const Graph> realization,
             std::vector<std::vector<Path>> plan);

  // Folds the storm's failures physically active at t into the live graph.
  void fold(const FailureSchedule& storm, double t);
  // Rebuilds the live graph from the clean realization and active set.
  void refresh_live();

  // Pair i's darkness: the fraction of its installed paths invalid on the
  // live graph. No routes at all is fully dark.
  [[nodiscard]] double dark(std::size_t i) const;

  // Pair i runs off-plan while its plan routes are whole on g.
  [[nodiscard]] bool can_reconcile(std::size_t i, const Graph& g) const {
    return diverged[i] && all_valid_on(g, canonical[i]);
  }
  // Puts pair i back on its plan routes.
  void reconcile(std::size_t i);

  // Server paths on g through `cache`, built on first use; empty when
  // either server is detached from g.
  [[nodiscard]] std::vector<Path> paths_on(std::optional<PathCache>& cache,
                                           const Graph& g, NodeId src,
                                           NodeId dst) const;
  // paths_on the live graph, through a cache dropped at every refresh.
  [[nodiscard]] std::vector<Path> live_paths(NodeId src, NodeId dst) {
    return paths_on(live_cache_, *live, src, dst);
  }

 private:
  std::optional<PathCache> live_cache_;
};

}  // namespace flattree
