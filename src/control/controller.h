// Centralized control system (§4).
//
// The controller owns the flat-tree's static wiring and, per operation
// mode, compiles everything the network needs to run that mode:
//   * converter switch configurations (hard-coded per mode, §4),
//   * the realized topology graph,
//   * k-shortest-path routing state with ingress/egress prefix aggregation
//     (rule counts per switch, §4.2),
//   * the IP address plan for the mode (§4.2.1).
//
// plan_conversion() diffs two compiled modes the way the testbed control
// software does: count converter reconfigurations (OCS partitions), rules
// to delete from the outgoing mode and to add for the incoming mode, and
// price them with the measured per-operation latencies (Table 3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/addressing.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "routing/ksp.h"
#include "routing/rules.h"
#include "sim/fluid.h"

namespace flattree {

// Latency model calibrated against Table 3: a single 160 ms OCS
// reconfiguration pass plus per-rule delete/add on the busiest switch
// table. The paper's own numbers imply ~2.65 ms per rule at its rule
// maxima (242 global / 180 local / 76 Clos); our compiled global-mode
// tables are about twice as large (this implementation's k-shortest paths
// on the ring-closed testbed wiring traverse more switches), so the
// default constants are scaled to keep the end-to-end conversion delay at
// the paper's ~1 s magnitude. See bench_table3 for the side-by-side.
struct ConversionDelayModel {
  double ocs_reconfigure_s{0.160};
  double rule_delete_s{0.00131};  // per rule of the outgoing mode
  double rule_add_s{0.00133};     // per rule of the incoming mode
  // §4.3: "we can speed up the state distribution by having a set of
  // controllers each managing a number of switches". Rule update time
  // divides by the controller count; the OCS pass does not.
  std::uint32_t controllers{1};

  // The controllers divisor with the zero-guard applied — the single home
  // of the clamp rule (controllers == 0 behaves as 1).
  [[nodiscard]] double effective_controllers() const {
    return std::max<std::uint32_t>(1, controllers);
  }

  // Rejects meaningless timings: a negative (or NaN) per-operation delay
  // would silently produce a negative ConversionReport/RepairPlan total.
  // Throws std::invalid_argument. Called at every pricing site.
  void validate() const;
};

struct ConversionReport {
  std::uint32_t converters_changed{0};
  std::uint64_t rules_deleted{0};
  std::uint64_t rules_added{0};
  double ocs_s{0.0};
  double delete_s{0.0};
  double add_s{0.0};
  [[nodiscard]] double total_s() const { return ocs_s + delete_s + add_s; }
};

// What a repair did to a CompiledMode's routing state (see apply_repair).
struct RepairApplication {
  std::size_t pairs_invalidated{0};  // cache entries evicted
  std::size_t pairs_retained{0};     // cache entries that survived
  std::vector<EvictedPair> evicted;  // the evicted pairs + old rule counts
};

// Everything the network needs to operate one mode assignment.
class CompiledMode {
 public:
  CompiledMode(const FlatTree& tree, ModeAssignment assignment,
               std::uint32_t k, bool count_rules,
               const obs::ObsSink& sink = obs::ObsSink{});

  [[nodiscard]] const ModeAssignment& assignment() const { return assignment_; }
  [[nodiscard]] const std::vector<ConverterConfig>& configs() const {
    return configs_;
  }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] std::shared_ptr<const Graph> graph_ptr() const { return graph_; }
  [[nodiscard]] PathCache& paths() const { return *paths_; }
  [[nodiscard]] std::uint32_t k() const { return k_; }

  // Switches the live mode to a repaired operating topology without a full
  // recompile: replaces the graph and converter configs, then incrementally
  // invalidates the path cache — only pairs whose paths traverse a failed
  // switch or a severed adjacency are evicted; everything else keeps
  // serving. `graph` must share node ids with the current graph (every
  // flat-tree realization and every degrade() of one does). The rule-count
  // statistics are NOT recomputed — they keep describing the last full
  // compile; the incremental delta lives in the returned application and
  // the RepairPlan built from it.
  RepairApplication apply_repair(std::shared_ptr<const Graph> graph,
                                 std::vector<ConverterConfig> configs,
                                 std::span<const NodeId> failed_switches);

  // Prefix-aggregated rule statistics (only if compiled with count_rules).
  [[nodiscard]] bool has_rule_counts() const { return has_rule_counts_; }
  [[nodiscard]] std::uint64_t total_rules() const { return total_rules_; }
  [[nodiscard]] std::uint64_t max_rules_per_switch() const {
    return max_rules_per_switch_;
  }
  [[nodiscard]] const StateCounts& state_counts() const { return states_; }

 private:
  ModeAssignment assignment_;
  std::uint32_t k_;
  std::vector<ConverterConfig> configs_;
  std::shared_ptr<const Graph> graph_;
  std::unique_ptr<PathCache> paths_;  // mutable cache over graph_
  bool has_rule_counts_{false};
  std::uint64_t total_rules_{0};
  std::uint64_t max_rules_per_switch_{0};
  StateCounts states_{};
};

// The fluid simulator's route source for a compiled mode: its path cache's
// server paths. The provider refers to `mode`, which must outlive it.
[[nodiscard]] PathProvider path_provider(const CompiledMode& mode);

struct ControllerOptions {
  std::uint32_t k_global{8};
  std::uint32_t k_local{8};
  std::uint32_t k_clos{8};
  ConversionDelayModel delay{};
  bool count_rules{true};  // disable for large topologies
  // Observability: when attached, compiled modes count their path-cache
  // traffic (routing.ksp.*) and plan_repair/plan_conversion record
  // control.* counters, rule-delta histograms, Table-3 priced delays, and
  // tracer marks per planning phase. Disabled (all-null) by default.
  obs::ObsSink sink{};
};

struct RepairOptions {
  // Consider converter reconfiguration as a repair action: a side/cross
  // converter whose core switch died has its broken-out server stranded on
  // the dead box; flipping the converter pair to local re-homes both
  // servers onto their aggregation switches (costing one OCS pass).
  bool allow_converter_rewire{true};
};

// An incremental recovery plan: the post-repair operating topology, the
// converter reconfigurations, and the rule-table delta priced with the
// same Table-3 delay model as full conversions. Unlike a ConversionReport
// (busiest-switch table rewritten wholesale), the rule counts here are the
// exact per-pair delta: only rules for path-cache entries broken by the
// failure are deleted and replaced.
struct RepairPlan {
  std::uint32_t converters_changed{0};
  std::uint64_t rules_deleted{0};
  std::uint64_t rules_added{0};
  double ocs_s{0.0};
  double delete_s{0.0};
  double add_s{0.0};
  [[nodiscard]] double total_s() const { return ocs_s + delete_s + add_s; }

  std::size_t pairs_invalidated{0};
  std::size_t pairs_retained{0};
  bool used_converter_rewire{false};
  std::vector<ConverterConfig> configs;   // post-repair converter configs
  std::shared_ptr<const Graph> graph;     // post-repair operating topology
};

class Controller {
 public:
  Controller(FlatTree tree, ControllerOptions options);

  [[nodiscard]] const FlatTree& tree() const { return tree_; }
  [[nodiscard]] const ControllerOptions& options() const { return options_; }

  // k for a uniform mode, per the per-mode options.
  [[nodiscard]] std::uint32_t k_for(PodMode mode) const;
  // k for an assignment: the largest k any of its Pods' modes uses.
  [[nodiscard]] std::uint32_t k_for(const ModeAssignment& assignment) const;

  [[nodiscard]] CompiledMode compile(const ModeAssignment& assignment,
                                     std::uint32_t k) const;
  [[nodiscard]] CompiledMode compile_uniform(PodMode mode) const;

  [[nodiscard]] ConversionReport plan_conversion(const CompiledMode& from,
                                                 const CompiledMode& to) const;

  // Recovery after `failures` strike while `mode` is live. Recomputes
  // routing state excluding the failed elements *incrementally*: the mode's
  // path cache keeps every entry untouched by the failure and re-solves
  // only the broken pairs on the degraded topology, so the rule delta (and
  // hence the recovery latency) scales with the blast radius instead of the
  // network size. With allow_converter_rewire, servers stranded on a failed
  // core switch are rescued by flipping their converter pair to local —
  // repair-by-reconfiguration, the flat-tree-native recovery action. `mode`
  // is mutated: after the call its graph() is the repaired topology and its
  // paths() serve routes around the failure.
  [[nodiscard]] RepairPlan plan_repair(
      CompiledMode& mode, const FailureSet& failures,
      const RepairOptions& repair_options = RepairOptions{}) const;

  // §4.3: "they can convert the topology gradually involving some of the
  // network devices... e.g. draining parts of the network incrementally
  // before making the changes". Returns the sequence of intermediate mode
  // assignments that converts one Pod per step (Pods already in their
  // target mode are skipped); the last element equals `to`. The sequence
  // may pass through hybrid assignments, which flat-tree supports natively.
  [[nodiscard]] static std::vector<ModeAssignment> gradual_plan(
      const ModeAssignment& from, const ModeAssignment& to);

 private:
  FlatTree tree_;
  ControllerOptions options_;
};

}  // namespace flattree
