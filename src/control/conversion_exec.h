// Staged, fault-tolerant conversion execution (§4.3 made operational),
// hardened against concurrent failures ("conversion under fire").
//
// Controller::plan_conversion prices a mode change as one atomic diff; a
// ConversionExecutor walks the network through it, live, over a lossy
// control channel and under a concurrent data-plane failure storm.
//
// One stage machine runs every conversion. A conversion is a list of
// stages — Controller::gradual_plan's per-Pod stages with
// options.stage_checkpoints, else just the target — and a stage is a list
// of phases:
//
//   kOcs        the changed converter units (side-peer pairs kept atomic)
//               chunked into `ocs_partitions` OCS passes. Ahead of each
//               pass a make-before-break kRulePatch re-routes every pair
//               the rewire would break onto the intersection graph (valid
//               before and after), or arms routes that activate the instant
//               the pass lands (the pair's access circuit moves with it).
//   rule sweep  per switch, a kRuleAdd of the stage target's rules.
//   kEpochFlip  the barrier + ingress epoch flip: the commit point.
//   GC sweep    per switch, a kRuleDelete of the outgoing rules.
//
// The protocol only picks the phase order and whether a rule sweep is inert.
// The staged protocol runs OCS, an inert sweep (rules installed under the
// new epoch tag, inert until the flip), the flip, then old-epoch GC. The
// atomic-swap baseline (staged = false) is one stage: a GC sweep that
// darkens every pair switch by switch, one OCS pass without
// make-before-break, a sweep that restores pairs as their switches are
// programmed, and a bookkeeping flip. Its rule hole violates no-blackhole
// by construction — the window the staged protocol exists to remove.
//
// Every step is one idempotent command with timeout, exponential backoff
// with deterministic decorrelated jitter, and bounded retries. A phase that
// exhausts a forward step — an injected OCS partition failure, a
// control-plane-dead switch that never acks, a Pod-partitioned flip
// barrier, or plain bad luck at high loss — rolls the stage back: the
// applied phases are undone in reverse, one undo routine per phase kind
// (collect the installed rules, un-rewire the passes with the same
// make-before-break patching and reinstate the checkpoint's canonical
// routes in a kRuleRestore step; the baseline restores its deleted rules
// switch by switch). Rollback steps retry unbounded (the channel is lossy,
// not dead).
//
// Steps are separated by step boundaries, the executor's only detection point:
//
//   * Live re-planning. Due events of the FailureSchedule (link ids in the
//     origin realization's space, resolved by node pair across
//     realizations) fold into the live graph; installed routes they broke
//     are re-planned in batched kRulePatch steps (StepRecord::replan),
//     stage-target routes are repaired through Controller::plan_repair, and
//     recoveries reconcile diverged pairs back to the canonical plan — so a
//     fully recovered storm leaves routes bit-for-bit equal to the plan.
//   * Controller failover (faults.kill_primary_at_s). When the primary has
//     died, the standby takes over after failover_takeover_s, re-issues the
//     step that was in flight (its ack went to the dead primary), and — in
//     a forward staged phase — rescans from durable state alone: converter
//     configs readable from the OCS and per-switch epoch-tagged rule
//     counts, never leaving mixed-epoch state behind.
//
// Before the flip an exhausted re-plan aborts the stage; after it, and
// throughout the baseline and rollback, re-plans are best effort. Every
// committed stage is a durable CheckpointRecord (assignment, configs,
// canonical routes); a failed stage rolls back to the last checkpoint — a
// valid partial mode from the paper's convertibility spectrum — and the
// execution reports kPartial. The terminal state is always bit-for-bit one
// of the checkpointed modes once active storm failures have recovered.
//
// A transient-invariant checker runs after every state change: server-level
// connectivity (of the clean realization — a storm partition is the storm's
// fault, not the executor's), no black-holed pair (every pair physically
// reachable on the live graph keeps a non-empty route set valid on it), and
// no routing loop.
//
// Control-plane-dead switches are fail-static: they keep forwarding the
// rules already installed but never ack an update. Patch routes avoid them
// as transit; batched rule operations that would land on one are skipped
// and counted (conv_exec.rules_skipped_dead); a per-switch rule step
// addressed to one fails outright and rolls the stage back.
//
// The ExecutionReport's timeline of boundary states (live graph, epoch,
// per-pair installed routes, packet blackout window) — including a point per
// storm event at its physical time — drives both simulators through every
// transient topology: run_fluid_with_conversion replays it through
// FluidSimulator::run_with_schedule on the union graph, and drive_packet_sim
// through PacketSim::apply_conversion.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "control/controller.h"
#include "control/serving_state.h"
#include "net/failures.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "routing/path.h"
#include "sim/fluid.h"
#include "sim/packet.h"
#include "traffic/flow.h"

namespace flattree {

// The lossy control channel between the controller and the devices it
// programs. Every step is one idempotent command: each attempt draws the
// command drop and (if delivered and executed) the ack drop independently;
// a lost message surfaces as a timeout and the next attempt goes out after
// timeout_s * backoff^(attempt-1), floored at one command round trip and
// shortened by up to `jitter` of itself. The jitter draw comes from a
// dedicated RNG stream decorrelated from the per-message drop stream, so
// changing it reshapes retry *timing* without perturbing any delivery
// outcome — and executions stay byte-identical across thread counts.
struct ControlChannelOptions {
  double drop_probability{0.0};   // per message, in [0, 1)
  double delay_s{0.0005};         // one-way controller <-> device latency
  double timeout_s{0.05};         // base retransmit timeout
  double backoff{2.0};            // timeout multiplier per retry
  double jitter{0.1};             // backoff desynchronization, in [0, 1]
  std::uint32_t max_attempts{5};  // forward steps; rollback retries unbounded
  // Topology-aware per-switch one-way delays, indexed by node id (see
  // net/control_rtt.h). Empty = every message costs the uniform delay_s.
  // Per-switch steps addressed to node n use switch_delay_s[n]; untargeted
  // steps (patches, OCS passes, the epoch flip barrier) keep delay_s —
  // they fan out to many devices and the uniform figure is their
  // calibrated aggregate. Delays shape retry *timing* only; delivery
  // outcomes come from the drop stream and stay invariant.
  std::vector<double> switch_delay_s;

  // Throws std::invalid_argument on out-of-range fields (negative delays,
  // drop_probability outside [0, 1), backoff < 1, jitter outside [0, 1],
  // zero attempts, negative switch_delay_s entries, NaN).
  void validate() const;
};

// Injected control-plane faults for chaos testing.
struct ConversionFaults {
  // Switches that keep forwarding (fail-static) but never ack an update.
  std::vector<NodeId> dead_switches;
  // Forward OCS steps (by partition index in execution order, global across
  // stages) that fail permanently: the circuits never move, every attempt
  // reports failure.
  std::vector<std::uint32_t> fail_ocs_partitions;
  // When >= 0, the primary controller dies at this simulated time; the
  // standby takes over at the next step boundary (see the header comment).
  // NaN is rejected.
  double kill_primary_at_s{-1.0};
  // Control-network partitions. While a Pod is partitioned its switches keep
  // forwarding installed rules fail-static. Under the flat controller
  // (pod_local_authority = false) a per-switch rule step addressed into the
  // partition fails outright — the root cannot reach the table — and
  // old-epoch GC / rollback deletes into it are skipped and counted
  // (rules_skipped_dead; the leftovers are inert under the committed
  // epoch). With a Pod-local controller holding authority
  // (pod_local_authority = true) those per-switch steps succeed — the local
  // controller programs its own Pod. Either way the kEpochFlip barrier
  // fails while any Pod carrying new-epoch rules is partitioned: the
  // root-coordinated commit cannot span an island, so the in-flight stage
  // rolls back to the last checkpoint (kPartial), never the whole
  // conversion. Windows are checked at step start (per-call granularity,
  // deterministic).
  std::vector<ControlPartition> partitions;
};

struct ConversionExecOptions {
  bool staged{true};              // false = atomic-swap baseline
  std::uint32_t ocs_partitions{4};
  ControlChannelOptions channel{};
  std::uint64_t seed{1};
  // Drive Controller::gradual_plan's per-Pod stages through the epoch
  // protocol, each committed stage a durable rollback point. Requires
  // staged; rejected with the atomic baseline.
  bool stage_checkpoints{false};
  // Re-plan routes broken by storm failures instead of letting them dangle.
  // Only observable under execute_under_storm with a non-empty schedule.
  bool live_replanning{true};
  // Standby promotion delay after the primary dies (kill_primary_at_s);
  // must be >= 0.
  double failover_takeover_s{0.25};
  // Per-Pod local controllers hold authority over their own Pod's switch
  // tables (the hierarchical control plane of src/control/hierarchy.h):
  // per-switch rule steps into a partitioned Pod still succeed — its local
  // controller issues them — while the flat default fails them at the
  // root. The kEpochFlip barrier is root-coordinated under both regimes;
  // see ConversionFaults::partitions.
  bool pod_local_authority{false};
  // conv_exec.* metrics (steps, retries, drops, rollbacks, violations,
  // blackhole time, replan/checkpoint/failover activity) and per-step
  // tracer marks. All updates are commutative, so exports stay
  // byte-identical across thread counts.
  obs::ObsSink sink{};
};

enum class StepKind : std::uint8_t {
  kRulePatch,    // make-before-break route patch ahead of an OCS step, or a
                 // storm re-plan batch (StepRecord::replan)
  kOcs,          // one OCS partition rewires its converters
  kRuleAdd,      // one switch installs its new-epoch rules (inert)
  kEpochFlip,    // barrier + ingress epoch flip: the commit point
  kRuleDelete,   // one switch deletes rules (old-epoch GC, or the atomic
                 // baseline's up-front delete phase)
  kRuleRestore,  // rollback: reinstate the checkpoint's canonical routes
};

[[nodiscard]] const char* to_string(StepKind kind);

struct StepRecord {
  StepKind kind{StepKind::kRulePatch};
  bool rollback{false};          // executed while rolling back
  bool replan{false};            // storm re-plan / reconcile batch
  bool standby{false};           // issued by the standby after failover
  NodeId target{};               // switch for per-switch rule steps
  std::uint32_t partition{0};    // OCS partition index (kOcs/kRulePatch)
  std::uint64_t rules_added{0};
  std::uint64_t rules_deleted{0};
  double start_s{0.0};
  double finish_s{0.0};          // completion (or failure) time
  std::uint32_t attempts{1};
  bool ok{true};
};

enum class ViolationKind : std::uint8_t {
  kDisconnected,  // servers_connected() failed on an intermediate graph
  kBlackhole,     // a connected pair had no (fully) valid installed route
  kLoop,          // an installed path repeated a node
};

struct TransientViolation {
  ViolationKind kind{ViolationKind::kBlackhole};
  std::size_t step{0};  // index into ExecutionReport::steps
  std::size_t pair{0};  // index into ExecutionReport::pairs (0 for kDisconnected)
};

enum class ConversionOutcome : std::uint8_t {
  kConverted,   // every stage committed: the fabric runs the target mode
  kPartial,     // >= 1 stage committed, then rolled back to that checkpoint
  kRolledBack,  // no stage committed: back to the origin mode
};

[[nodiscard]] const char* to_string(ConversionOutcome outcome);

// A durable rollback point: the complete description of a mode the fabric
// has fully committed (origin, a per-Pod gradual stage, or the target).
// routes are the mode's *canonical* plan routes — what reconciliation
// restores once storm failures recover — per tracked pair.
struct CheckpointRecord {
  std::uint32_t stage{0};  // 0 = origin, s = after committing stage s
  double t{0.0};
  std::uint32_t epoch{0};
  ModeAssignment assignment;
  std::vector<ConverterConfig> configs;
  std::vector<std::vector<Path>> routes;
};

// One state of the execution timeline: everything the data plane would
// observe until the next point. Points come from executor step boundaries
// and, under a storm, from the storm's physical event times (the executor
// detects damage only at boundaries, but the timeline binds each failure
// and recovery when it actually happened). The graph is the live topology
// over the point's interval: the prevailing realization minus the storm
// failures physically active at t. blackout_s models the
// in-progress window the boundary closes (an OCS rewire or the atomic
// baseline's rule hole) for the packet simulator, which stalls the affected
// pipes for that long.
struct TimelinePoint {
  double t{0.0};
  std::shared_ptr<const Graph> graph;
  std::uint32_t epoch{0};  // committed stages so far (0 = outgoing mode)
  double blackout_s{0.0};
  ConversionScope scope{ConversionScope::kChangedOnly};
  // Installed routes per pair (parallel to ExecutionReport::pairs). An
  // empty set means the pair is black-holed at this boundary (atomic
  // baseline's rule window only; the staged protocol never produces one).
  std::vector<std::vector<Path>> routes;
};

struct ExecutionReport {
  ConversionOutcome outcome{ConversionOutcome::kConverted};
  bool staged{true};
  double start_s{0.0};
  double finish_s{0.0};
  std::uint32_t retries{0};            // attempts beyond each step's first
  std::uint32_t messages_dropped{0};
  std::uint32_t steps_failed{0};       // exhausted forward steps
  std::uint64_t rules_added{0};
  std::uint64_t rules_deleted{0};
  std::uint64_t rules_skipped_dead{0};
  std::size_t pairs_patched{0};        // make-before-break re-routes
  // Storm tolerance.
  std::uint32_t replans{0};            // batched re-plan/reconcile steps
  std::size_t pairs_replanned{0};      // pair-route installs off-plan
  std::uint32_t stages_total{1};
  std::uint32_t stages_committed{0};
  std::uint32_t failovers{0};          // standby takeovers
  std::uint32_t steps_reissued{0};     // in-flight steps confirmed by standby
  // Route-availability integral over the timeline: each interval charges a
  // pair the fraction of its installed paths invalid on that interval's
  // graph (no routes at all = fully dark). Storm events bind at their
  // physical times, so a broken path is charged from the instant of
  // failure until re-planned or recovered.
  double total_blackhole_s{0.0};       // summed across pairs (pair-seconds)
  double max_pair_blackhole_s{0.0};    // worst single pair
  std::vector<std::pair<NodeId, NodeId>> pairs;  // server pairs tracked
  std::vector<StepRecord> steps;
  std::vector<TransientViolation> violations;
  std::vector<TimelinePoint> timeline;  // [0] = the pre-conversion state
  // checkpoints[0] is always the origin; one more per committed stage. The
  // terminal mode is checkpoints.back(): terminal_configs equals its
  // configs, and — once every storm failure has recovered — the installed
  // routes equal its canonical routes bit-for-bit.
  std::vector<CheckpointRecord> checkpoints;
  ModeAssignment terminal_assignment;
  std::vector<ConverterConfig> terminal_configs;
};

class ConversionExecutor {
 public:
  ConversionExecutor(const Controller& controller,
                     ConversionExecOptions options);

  [[nodiscard]] const ConversionExecOptions& options() const {
    return options_;
  }

  // Executes the conversion `from` -> `to` for the given tracked server
  // pairs, starting at simulated time t0_s. Both modes must be compiled
  // from the controller's flat-tree. Deterministic: a fixed (options.seed,
  // arguments) pair always yields the identical report.
  [[nodiscard]] ExecutionReport execute(
      const CompiledMode& from, const CompiledMode& to,
      std::span<const std::pair<NodeId, NodeId>> pairs,
      const ConversionFaults& faults = ConversionFaults{},
      double t0_s = 0.0) const;

  // execute() with a concurrent data-plane failure storm. `storm` names
  // links in `from`'s realization (the reference space; ids are resolved to
  // node pairs across intermediate realizations) and must satisfy
  // FailureSchedule's construction invariants. Events fold into the live
  // graph at step boundaries; see the header comment for the re-planning,
  // checkpoint and failover semantics.
  [[nodiscard]] ExecutionReport execute_under_storm(
      const CompiledMode& from, const CompiledMode& to,
      std::span<const std::pair<NodeId, NodeId>> pairs,
      const FailureSchedule& storm,
      const ConversionFaults& faults = ConversionFaults{},
      double t0_s = 0.0) const;

 private:
  const Controller* controller_;
  ConversionExecOptions options_;
};

// Each tracked pair's route-availability integral over the report's
// timeline (parallel to report.pairs): total_blackhole_s is their sum and
// max_pair_blackhole_s their maximum.
[[nodiscard]] std::vector<double> pair_blackhole_s(
    const ExecutionReport& report);

// -- simulator drivers --------------------------------------------------------

// The fluid-side replay of an execution: the union graph of every timeline
// state, a FailureSchedule expressing each boundary's link delta against
// that union (links absent from the current state are failed), and the
// timeline point each routing refresh belongs to. Feed the schedule to
// FluidSimulator::run_with_schedule with repair_lag 0 and a refresh that
// serves refresh_point[k]'s routes at the k-th refresh —
// run_fluid_with_conversion does exactly that.
struct ConversionDrive {
  std::shared_ptr<const Graph> base;
  FailureSchedule schedule;
  std::vector<std::size_t> refresh_point;
};

[[nodiscard]] ConversionDrive make_conversion_drive(
    const ExecutionReport& report);

// Runs `flows` through the fluid simulator while the conversion executes:
// capacity follows the timeline's graphs, routes follow its installed route
// snapshots (pairs outside report.pairs keep the point-0 routes they
// resolve to, which is an error in the caller — track every pair the
// workload uses). Flows over a black-holed pair stall until a later
// boundary restores a route, exactly like a scheduled failure.
[[nodiscard]] std::vector<FluidFlowResult> run_fluid_with_conversion(
    const ExecutionReport& report, const Workload& flows,
    const FluidOptions& options = FluidOptions{},
    ScheduleRunStats* stats = nullptr);

// Replays the timeline through a packet simulator: the caller has called
// sim.set_network(*report.timeline.front().graph) and added `flows`
// (index-aligned with the sim's flows, routed on the point-0 snapshot,
// e.g. via conversion_paths_for). Each subsequent boundary applies as an
// apply_conversion with the point's graph, routes, blackout and scope;
// pairs with an empty snapshot keep their current (black-holed) paths.
// Finally runs the event loop to horizon_s.
void drive_packet_sim(PacketSim& sim, const ExecutionReport& report,
                      const Workload& flows, double horizon_s);

// The point-`point` route snapshot for a workload flow, for wiring
// PacketSim::add_flow to a timeline state.
[[nodiscard]] std::vector<Path> conversion_paths_for(
    const ExecutionReport& report, const Flow& flow, std::size_t point = 0);

// The tracked pairs of a workload on `graph`: one (src, dst) server-node
// pair per flow, in flow order (duplicates kept).
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> workload_pairs(
    const Graph& graph, const Workload& flows);

// -- repair refresh -----------------------------------------------------------

// What run_fluid_with_repair produced.
struct RepairRun {
  std::vector<FluidFlowResult> base;    // failure-free baseline run
  std::vector<FluidFlowResult> failed;  // the scheduled run
  RepairPlan plan;
  double repair_lag_s{0.0};             // the lag the refresh landed after
  ScheduleRunStats sched;
};

// The failure-recovery experiment with controller-driven repair (the
// scenario runner's "repair" refresh; bench_failure_recovery's cells).
// `flows` first run failure-free on `assignment` compiled at
// controller.k_for(assignment); that run warms the live mode's path cache,
// on which plan_repair's eviction statistics depend. plan_repair then turns
// the live mode into the repaired mode for the schedule's first event's
// failure set, and the scheduled run operates on the union of a fresh
// pre-failure realization and the repaired graph: the rescue circuits are
// present from the start but inert under max-min filling until the refresh
// — landing `repair_lag_s` after each event, or the plan's priced delay
// when negative — routes onto them.
[[nodiscard]] RepairRun run_fluid_with_repair(
    const Controller& controller, const ModeAssignment& assignment,
    const Workload& flows, const FailureSchedule& schedule,
    double repair_lag_s, const FluidOptions& options);

}  // namespace flattree
