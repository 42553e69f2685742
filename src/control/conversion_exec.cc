#include "control/conversion_exec.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/converter.h"
#include "net/rng.h"
#include "obs/metrics.h"
#include "routing/ksp.h"

namespace flattree {

namespace {

// Argument checks: the conditions are written so NaN (which compares false
// against every bound) fails them too.
void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

bool names_switch(const Graph& graph, NodeId n) {
  return n.index() < graph.node_count() && is_switch(graph.node(n).role);
}

}  // namespace

void ControlChannelOptions::validate() const {
  require(drop_probability >= 0.0 && drop_probability < 1.0,
          "ControlChannelOptions: drop_probability must be in [0, 1)");
  require(delay_s >= 0.0, "ControlChannelOptions: delay_s must be >= 0");
  require(timeout_s > 0.0, "ControlChannelOptions: timeout_s must be > 0");
  require(backoff >= 1.0, "ControlChannelOptions: backoff must be >= 1");
  require(jitter >= 0.0 && jitter <= 1.0,
          "ControlChannelOptions: jitter must be in [0, 1]");
  require(max_attempts != 0,
          "ControlChannelOptions: max_attempts must be >= 1");
  for (double d : switch_delay_s) {
    require(d >= 0.0,
            "ControlChannelOptions: switch_delay_s entries must be >= 0");
  }
}

const char* to_string(StepKind kind) {
  switch (kind) {
    case StepKind::kRulePatch: return "rule_patch";
    case StepKind::kOcs: return "ocs";
    case StepKind::kRuleAdd: return "rule_add";
    case StepKind::kEpochFlip: return "epoch_flip";
    case StepKind::kRuleDelete: return "rule_delete";
    case StepKind::kRuleRestore: return "rule_restore";
  }
  return "?";
}

const char* to_string(ConversionOutcome outcome) {
  switch (outcome) {
    case ConversionOutcome::kConverted: return "converted";
    case ConversionOutcome::kPartial: return "partial";
    case ConversionOutcome::kRolledBack: return "rolled_back";
  }
  return "?";
}

namespace {

std::uint64_t directed_pair_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
}

bool has_repeated_node(const Path& path) {
  Path sorted = path;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

// Changed converters grouped into rewire units (a six-port converter and its
// side peer configure pairwise, so they always move in the same OCS pass —
// FlatTree::realize rejects half-configured side bundles) and chunked into
// at most `requested` contiguous partitions.
std::vector<std::vector<std::uint32_t>> make_partitions(
    const FlatTree& tree, std::span<const ConverterConfig> from,
    std::span<const ConverterConfig> to, std::uint32_t requested) {
  const std::span<const Converter> converters = tree.converters();
  std::vector<std::vector<std::uint32_t>> units;
  std::vector<bool> seen(from.size(), false);
  for (std::uint32_t i = 0; i < from.size(); ++i) {
    if (seen[i] || from[i] == to[i]) continue;
    std::vector<std::uint32_t> unit{i};
    seen[i] = true;
    const ConverterId peer = converters[i].side_peer;
    if (peer.valid() && peer.index() < from.size() && !seen[peer.index()]) {
      unit.push_back(peer.value());
      seen[peer.index()] = true;
    }
    units.push_back(std::move(unit));
  }
  if (units.empty()) return {};
  const std::size_t count = std::min<std::size_t>(
      std::max<std::uint32_t>(1, requested), units.size());
  std::vector<std::vector<std::uint32_t>> partitions(count);
  for (std::size_t u = 0; u < units.size(); ++u) {
    std::vector<std::uint32_t>& part = partitions[u * count / units.size()];
    part.insert(part.end(), units[u].begin(), units[u].end());
  }
  return partitions;
}

bool same_failure_set(const FailureSet& a, const FailureSet& b) {
  return a.links == b.links && a.switches == b.switches;
}

struct ChannelOutcome {
  bool ok{false};
  double finish_s{0.0};
  std::uint32_t attempts{0};
  std::uint32_t dropped{0};
};

// Make-before-break patches (under a storm) and storm re-plans land as
// batches of at most this many rule operations, each committed on its own
// ack: a failure landing mid-patch is observed within one batch.
constexpr std::uint64_t kPatchBatchRules = 256;

// What a step boundary tells the phase that reached it.
enum class Boundary : std::uint8_t {
  kContinue,
  kRescan,  // the standby took over: rescan from durable state
  kAbort,   // a pre-commit re-plan exhausted its retries: roll back
};

// How much a step boundary may decide for its caller.
enum class Gate : std::uint8_t {
  kAbortable,   // a forward staged step before the commit point is next
  kBestEffort,  // mid-pass, post-commit, rollback or the atomic baseline
  kDrain,       // a stage's closing fold: storm only, no takeover
};

// A stage's phases, in the order its protocol runs them (see the header
// comment); a failed phase rolls the applied ones back in reverse.
enum class Phase : std::uint8_t { kOcs, kRuleSweep, kEpochFlip, kGcSweep };

constexpr Phase kStagedPhases[] = {Phase::kOcs, Phase::kRuleSweep,
                                   Phase::kEpochFlip, Phase::kGcSweep};
constexpr Phase kAtomicPhases[] = {Phase::kGcSweep, Phase::kOcs,
                                   Phase::kRuleSweep, Phase::kEpochFlip};

// One from -> to mini-conversion and the durable state its phases leave.
struct Stage {
  const CompiledMode* from{nullptr};  // the last checkpoint's mode
  const std::vector<std::vector<Path>>* from_routes{nullptr};  // its routes
  const CompiledMode* to{nullptr};
  std::uint32_t epoch{0};     // the epoch committing this stage flips to
  std::uint32_t ocs_base{0};  // global index of the stage's first OCS pass
  std::vector<std::vector<std::uint32_t>> partitions;
  std::vector<std::vector<Path>> to_routes;  // stage target's plan routes
  std::vector<std::uint64_t> to_fp;       // per switch: incoming rules
  std::vector<std::uint64_t> installed;   // per switch: incoming rules acked
  std::vector<std::uint64_t> retiring;    // per switch: outgoing rules
  std::vector<bool> deleted;  // outgoing rules deleted (atomic baseline)
};

// The whole mutable execution state plus the step/timeline machinery. One
// instance per execute() call; everything it touches is local or owned by
// the caller, so executions are trivially parallel across threads.
struct Exec {
  const FlatTree& tree;
  const Controller& controller;
  const ConversionExecOptions& opt;
  const ConversionDelayModel& delay;
  const ConversionFaults& faults;
  ExecutionReport& report;
  Rng rng;
  Rng jitter_rng;  // decorrelated from the drop stream by construction
  ServingState serve;  // graphs, storm failures, installed/canonical routes
  double now{0.0};
  std::uint32_t epoch{0};
  std::vector<ConverterConfig> configs{};
  std::vector<bool> dead{};      // per node id, control-plane dead
  std::vector<NodeId> dead_list{};  // the same, sorted

  // Storm state. Link ids of `storm` live in serve.reference's space (the
  // origin realization) and resolve to node pairs across realizations.
  const FailureSchedule* storm{nullptr};
  std::size_t storm_next{0};
  // Intersection graph of an in-flight make-before-break rewire (set only
  // while rewire_partition's patch chunks are landing). A re-plan that
  // fires mid-rewire solves on this graph so its substitutes survive the
  // imminent OCS pass.
  const Graph* mbb_intersection{nullptr};
  bool in_rollback{false};
  bool replan_failed{false};  // a forward re-plan step exhausted its retries

  // Failover state.
  bool failed_over{false};
  bool standby{false};  // steps from here on are issued by the standby

  // The current stage's goal mode, for repairing its plan routes through
  // Controller::plan_repair when the storm breaks them. stage_live is a
  // storm-degraded repaired copy, rebuilt whenever the active set changes.
  const CompiledMode* stage_target{nullptr};
  std::optional<CompiledMode> stage_live{};
  FailureSet stage_live_fails{};

  obs::Counter* c_steps{nullptr};
  obs::Counter* c_step_failures{nullptr};
  obs::Counter* c_retries{nullptr};
  obs::Counter* c_dropped{nullptr};
  obs::Counter* c_patched{nullptr};
  obs::Counter* c_inv_checks{nullptr};
  obs::Counter* c_violations{nullptr};
  obs::Counter* c_replan_events{nullptr};
  obs::Counter* c_replan_pairs{nullptr};
  obs::Counter* c_replan_steps{nullptr};
  obs::Counter* c_ckpt_committed{nullptr};
  obs::Counter* c_ckpt_rollbacks{nullptr};
  obs::Counter* c_fo_takeovers{nullptr};
  obs::Counter* c_fo_reissued{nullptr};
  obs::Histogram* h_attempts{nullptr};
  obs::EventTracer* tracer{nullptr};

  // The one-way delay toward a step's target: the topology-aware
  // per-switch figure when the channel carries one (net/control_rtt.h),
  // else the uniform delay_s. Untargeted steps (patches, OCS passes, the
  // flip barrier) always use delay_s — they fan out to many devices and
  // the uniform figure is their calibrated aggregate.
  double one_way_for(NodeId target) const {
    const std::vector<double>& d = opt.channel.switch_delay_s;
    if (!target.valid() || target.index() >= d.size()) {
      return opt.channel.delay_s;
    }
    return d[target.index()];
  }

  // True when n's Pod has an active control partition at `now`. Core
  // switches carry no Pod and are never partitioned. Windows are checked
  // at step start — per-call granularity, deterministic.
  bool partitioned(NodeId n) const {
    return partition_at(faults.partitions, serve.graph->node(n).pod, now) !=
           nullptr;
  }

  // A per-switch step the commanding controller cannot deliver: the flat
  // root cannot cross a partition; a Pod-local controller with authority
  // programs its own island.
  bool partition_blocks(NodeId n) const {
    return !opt.pod_local_authority && partitioned(n);
  }

  // One command round over the lossy channel: per attempt the command drop
  // and (if delivered and executable) the ack drop are drawn independently;
  // a forced failure (dead switch, injected OCS fault) is delivered but
  // never acks. Retries go out after a capped exponential backoff,
  // shortened by up to channel.jitter of itself from the dedicated jitter
  // stream — desynchronizing retry trains without touching the drop
  // stream, so delivery outcomes are invariant under jitter changes.
  // `unbounded` (rollback) retries until success, with a far-out safety
  // valve so an adversarial seed cannot hang the executor.
  ChannelOutcome channel_round(double start_s, double one_way_s,
                               double service_s, bool forced_fail,
                               bool unbounded) {
    const ControlChannelOptions& ch = opt.channel;
    const double rtt = 2.0 * one_way_s + service_s;
    const double base_timeout = std::max(ch.timeout_s, rtt);
    const double timeout_cap = base_timeout * 64.0;
    const std::uint32_t cap = unbounded ? 4096u : ch.max_attempts;
    ChannelOutcome out;
    double t = start_s;
    double timeout = base_timeout;
    for (std::uint32_t attempt = 1; attempt <= cap; ++attempt) {
      out.attempts = attempt;
      const bool delivered = !(rng.next_double() < ch.drop_probability);
      if (!delivered) {
        ++out.dropped;
      } else if (!forced_fail) {
        const bool acked = !(rng.next_double() < ch.drop_probability);
        if (acked) {
          out.ok = true;
          out.finish_s = t + rtt;
          return out;
        }
        ++out.dropped;
      }
      t += timeout * (1.0 - ch.jitter * jitter_rng.next_double());
      timeout = std::min(timeout * ch.backoff, timeout_cap);
    }
    out.finish_s = t;
    return out;
  }

  // Appends a step that ran as channel round `out` and advances simulated
  // time past it.
  void record(StepRecord rec, const ChannelOutcome& out) {
    rec.start_s = now;
    rec.finish_s = out.finish_s;
    rec.attempts = out.attempts;
    rec.ok = out.ok;
    report.steps.push_back(rec);
    now = out.finish_s;
    report.retries += out.attempts - 1;
    report.messages_dropped += out.dropped;
  }

  // Executes one schedule step over the channel, records it, and advances
  // simulated time. Returns whether the step was acked.
  bool run_step(StepKind kind, bool rollback, NodeId target,
                std::uint32_t partition, std::uint64_t adds,
                std::uint64_t dels, double extra_service_s, bool forced_fail,
                bool replan = false) {
    const double service =
        extra_service_s + (static_cast<double>(adds) * delay.rule_add_s +
                           static_cast<double>(dels) * delay.rule_delete_s) /
                              delay.effective_controllers();
    const ChannelOutcome out =
        channel_round(now, one_way_for(target), service, forced_fail,
                      rollback);
    record(StepRecord{kind, rollback, replan, standby, target, partition, adds,
                      dels},
           out);
    if (out.ok) {
      report.rules_added += adds;
      report.rules_deleted += dels;
    } else {
      ++report.steps_failed;
    }
    obs::add(c_steps);
    obs::add(c_retries, out.attempts - 1);
    obs::add(c_dropped, out.dropped);
    obs::record(h_attempts, static_cast<double>(out.attempts));
    if (!out.ok) obs::add(c_step_failures);
    if (tracer != nullptr) {
      tracer->mark("conv_exec", to_string(kind), 0,
                   static_cast<std::int64_t>(out.attempts));
    }
    return out.ok;
  }

  // -- storm machinery --------------------------------------------------------

  // Folds storm events due by `now` into the live graph; returns whether
  // any were due.
  bool fold_due() {
    if (storm == nullptr) return false;
    const std::vector<FailureEvent>& evs = storm->events();
    const std::size_t folded = storm_next;
    while (storm_next < evs.size() && evs[storm_next].time_s <= now) {
      ++storm_next;
    }
    if (storm_next == folded) return false;
    serve.fold(*storm, now);
    return true;
  }

  // One step boundary — the executor's only *detection* point, so the lag
  // between a physical event and the next boundary is real detection
  // latency (the post-pass in execute_under_storm binds physical event
  // times into the timeline). Due storm events fold and run one re-plan /
  // reconcile pass; then, unless draining, a dead primary's standby takes
  // over. Only an abortable gate reports an exhausted pre-commit re-plan
  // (kAbort, before any takeover) or a takeover (kRescan).
  Boundary boundary(Gate gate) {
    if (fold_due()) {
      obs::add(c_replan_events);
      if (opt.live_replanning) replan_pass();
    }
    if (gate == Gate::kDrain) return Boundary::kContinue;
    if (gate == Gate::kAbortable && replan_failed) return Boundary::kAbort;
    const bool took_over = maybe_failover();
    return took_over && gate == Gate::kAbortable ? Boundary::kRescan
                                                 : Boundary::kContinue;
  }

  // The stage target's plan, repaired around the active storm through the
  // controller (Controller::plan_repair on a fresh compile of the stage
  // assignment). Returns nullptr when there is no stage target or no storm.
  PathCache* ensure_stage_live() {
    if (stage_target == nullptr || serve.active.empty()) return nullptr;
    if (stage_live.has_value() &&
        same_failure_set(stage_live_fails, serve.active)) {
      return &stage_live->paths();
    }
    CompiledMode repaired =
        controller.compile(stage_target->assignment(), serve.k);
    // Map the reference-space failed links onto this realization by node
    // pair; switch ids are stable across realizations.
    const Graph& rg = repaired.graph();
    const FailureSet mapped{
        links_not_in(rg, degrade_mapped(rg, *serve.reference,
                                        FailureSet{serve.active.links, {}})),
        serve.active.switches};
    if (!mapped.empty()) {
      (void)controller.plan_repair(repaired, mapped,
                                   RepairOptions{.allow_converter_rewire = false});
    }
    stage_live.emplace(std::move(repaired));
    stage_live_fails = serve.active;
    return &stage_live->paths();
  }

  // Server paths on the repaired stage plan; empty when there is none or
  // when the storm detached either server from the repaired graph (its
  // access link is down there, so it has no attachment switch).
  std::vector<Path> stage_live_paths(NodeId src, NodeId dst) {
    PathCache* repaired = ensure_stage_live();
    if (repaired == nullptr) return {};
    const Graph& rg = stage_live->graph();
    if (rg.degree(src) == 0 || rg.degree(dst) == 0) return {};
    return repaired->server_paths(src, dst);
  }

  // One batched re-plan / reconcile step: pairs whose installed routes the
  // storm broke get a *targeted* patch — surviving paths stay installed,
  // only the dead ones are swapped for live-valid substitutes (preferring
  // the controller-repaired stage plan when the circuits already match the
  // stage target) — and diverged pairs whose canonical plan routes became
  // valid again are reconciled back, so a drained storm leaves the
  // installed state bit-for-bit on plan. Rule counts are diff-based (only
  // paths actually added/removed cost rules), which keeps the re-plan step
  // fast enough to run inside an outage instead of after it.
  void replan_pass() {
    struct Update {
      std::size_t pair;
      std::vector<Path> paths;  // empty when reconciling to the plan
      bool to_canonical;
      double dark;  // fraction of the pair's installed paths dead on live
    };
    std::vector<Update> updates;
    // A re-plan that fires while a make-before-break rewire is in flight
    // must hand out paths that survive the imminent OCS pass: solve and
    // validate on the intersection graph minus the storm, not the full
    // live realization — a live-only substitute could ride a link the
    // rewire is about to delete, turning the fix into the next blackhole.
    std::optional<Graph> mbb_live;
    if (mbb_intersection != nullptr) {
      mbb_live.emplace(serve.active.empty()
                           ? *mbb_intersection
                           : degrade_mapped(*mbb_intersection, *serve.reference,
                                            serve.active));
    }
    const Graph& eff = mbb_live.has_value() ? *mbb_live : *serve.live;
    std::optional<PathCache> live_cache;
    std::optional<Graph> live_dead;
    std::optional<PathCache> live_dead_cache;
    const auto solve_live = [&](NodeId src, NodeId dst) -> std::vector<Path> {
      if (!dead_list.empty()) {
        if (!live_dead.has_value()) {
          live_dead.emplace(degrade(eff, FailureSet{{}, dead_list}));
        }
        std::vector<Path> sol =
            serve.paths_on(live_dead_cache, *live_dead, src, dst);
        if (!sol.empty()) return sol;
      }
      return serve.paths_on(live_cache, eff, src, dst);
    };
    const bool on_target = stage_target != nullptr &&
                           configs == stage_target->configs();
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      // Reconciliation back to plan waits for the storm to drain: a
      // diverged pair is live-valid, so swapping it mid-storm buys nothing
      // and its rules stretch the very step that fixes real blackholes.
      if (serve.active.empty() && serve.can_reconcile(i, eff)) {
        updates.push_back(Update{i, {}, true, 0.0});
        continue;
      }
      const std::vector<Path>& rs = serve.routes[i];
      if (rs.empty()) continue;
      // The trigger is live-validity — is the pair dark *now*? Routes that
      // are live-valid but die at the in-flight OCS pass are the pending
      // patches' job, not this re-plan's; re-planning them here would only
      // stretch the step while real blackholes wait.
      const double dark = serve.dark(i);
      if (dark == 0.0) continue;
      const auto [src, dst] = report.pairs[i];
      // When the circuits match the stage target, serve the controller's
      // repaired stage plan directly.
      std::vector<Path> sol;
      if (on_target) sol = stage_live_paths(src, dst);
      if (!all_valid_on(eff, sol)) sol = solve_live(src, dst);
      // Targeted patch: keep the surviving paths, top the set back up from
      // the solve. A pair whose solve comes up empty still sheds its dead
      // paths (the ECMP group shrinks to the live subset); a pair with no
      // live path at all is storm-disconnected and left alone — the
      // checker holds only reachable pairs to the no-blackhole invariant.
      std::vector<Path> next = targeted_patch(rs, eff, sol, rs.size());
      if (next.empty()) continue;
      updates.push_back(Update{i, std::move(next), false, dark});
    }
    if (updates.empty()) return;
    // Most-dark pairs first: a pair whose whole ECMP set is dead bleeds
    // every flow hashed onto it, a partially-dead pair only a fraction, and
    // a reconcile swap nothing at all. The re-plan then lands as bounded
    // rule batches, each committed and timestamped on its own — the first
    // pair fixed stops bleeding after one chunk's worth of rules, not after
    // the whole fleet's.
    std::stable_sort(updates.begin(), updates.end(),
                     [](const Update& a, const Update& b) {
                       return a.dark > b.dark;
                     });
    ++report.replans;
    const std::size_t steps_before = report.steps.size();
    const bool ok = land_batches(
        updates.size(), kPatchBatchRules, 0, in_rollback, /*replan=*/true,
        [&](std::size_t j, auto& a, auto& d, auto& s) {
          // Diff-based: only paths actually added or removed cost rules.
          const Update& u = updates[j];
          const std::vector<Path>& next =
              u.to_canonical ? serve.canonical[u.pair] : u.paths;
          count_rules(serve.routes[u.pair], d, s, next);
          count_rules(next, a, s, serve.routes[u.pair]);
        },
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            Update& u = updates[j];
            if (u.to_canonical) {
              serve.reconcile(u.pair);
              continue;
            }
            serve.routes[u.pair] = std::move(u.paths);
            serve.diverged[u.pair] = true;
            ++report.pairs_replanned;
            obs::add(c_replan_pairs);
          }
          push_point(0.0, ConversionScope::kChangedOnly);
        },
        [] {});
    obs::add(c_replan_steps, report.steps.size() - steps_before);
    if (!ok) replan_failed = true;
  }

  // Lands `count` rule updates as kRulePatch steps, each packing updates
  // while its adds + deletes fit `budget` (0 = one batch) and committing
  // them through commit(begin, end) once acked; between() runs ahead of
  // every batch but the first. Returns false when a forward batch exhausts
  // its retries.
  template <typename Cost, typename Commit, typename Between>
  bool land_batches(std::size_t count, std::uint64_t budget,
                    std::uint32_t partition, bool rollback, bool replan,
                    Cost&& cost, Commit&& commit, Between&& between) {
    std::size_t begin = 0;
    while (begin < count) {
      if (begin > 0) between();
      std::uint64_t adds = 0;
      std::uint64_t dels = 0;
      std::uint64_t skipped = 0;
      std::size_t end = begin;
      while (end < count) {
        std::uint64_t a = adds;
        std::uint64_t d = dels;
        std::uint64_t s = skipped;
        cost(end, a, d, s);
        if (end > begin && budget != 0 && a + d > budget) break;
        adds = a;
        dels = d;
        skipped = s;
        ++end;
      }
      const bool ok = run_step(StepKind::kRulePatch, rollback, NodeId{},
                               partition, adds, dels, 0.0, false, replan);
      if (!ok && !rollback) return false;
      report.rules_skipped_dead += skipped;
      commit(begin, end);
      begin = end;
    }
    return true;
  }

  // Installs a mode's canonical routes (stage commit or rollback restore).
  // Under an active storm, pairs whose plan routes are broken on the live
  // graph get the controller-repaired stage plan (or a live-graph solve)
  // instead and are marked diverged for later reconciliation.
  void install_canonical(const std::vector<std::vector<Path>>& target) {
    serve.canonical = target;
    if (serve.active.empty() || !opt.live_replanning) {
      serve.routes = target;
      std::fill(serve.diverged.begin(), serve.diverged.end(), false);
      return;
    }
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      std::vector<Path> sol;
      if (!all_valid_on(*serve.live, target[i])) {
        const auto [src, dst] = report.pairs[i];
        sol = stage_live_paths(src, dst);
        if (!all_valid_on(*serve.live, sol)) sol = serve.live_paths(src, dst);
        // Storm-disconnected: install the plan and let reconciliation (or
        // the reachability-gated checker) account for it.
        if (!all_valid_on(*serve.live, sol)) sol.clear();
      }
      serve.diverged[i] = !sol.empty();
      serve.routes[i] = sol.empty() ? target[i] : std::move(sol);
      if (serve.diverged[i]) {
        ++report.pairs_replanned;
        obs::add(c_replan_pairs);
      }
    }
  }

  // -- failover ---------------------------------------------------------------

  // At a step boundary: if the primary died during the last step, the
  // standby takes over — promotion costs failover_takeover_s, and the step
  // whose ack went to the dead primary is re-issued as an idempotent
  // confirm. Returns true exactly once, when the takeover happens; callers
  // driving durable-state scans restart them so the standby's position is
  // reconstructed from the network, not from the dead primary's memory.
  bool maybe_failover() {
    if (failed_over || faults.kill_primary_at_s < 0.0 ||
        now < faults.kill_primary_at_s) {
      return false;
    }
    failed_over = true;
    standby = true;
    now += opt.failover_takeover_s;
    ++report.failovers;
    obs::add(c_fo_takeovers);
    if (tracer != nullptr) tracer->mark("conv_exec", "failover", 0, 1);
    if (!report.steps.empty() &&
        report.steps.back().start_s < faults.kill_primary_at_s) {
      const StepRecord& prev = report.steps.back();
      const ChannelOutcome out =
          channel_round(now, one_way_for(prev.target), 0.0, false, true);
      record(StepRecord{prev.kind, prev.rollback, prev.replan, true,
                        prev.target, prev.partition},
             out);
      ++report.steps_reissued;
      obs::add(c_fo_reissued);
    }
    return true;
  }

  // -- timeline / invariants --------------------------------------------------

  // Snapshots the current state onto the timeline and runs the transient
  // invariant checker against it. The snapshot carries the *clean* current
  // realization: storm damage is applied to every point afterwards, at the
  // storm's physical event times, so a failure folded late still darkens
  // the interval it actually covered.
  void push_point(double blackout_s, ConversionScope scope) {
    TimelinePoint pt;
    pt.t = now;
    pt.graph = serve.graph;
    pt.epoch = epoch;
    pt.blackout_s = blackout_s;
    pt.scope = scope;
    pt.routes = serve.routes;
    report.timeline.push_back(std::move(pt));
    check_invariants();
  }

  void add_violation(ViolationKind kind, std::size_t pair) {
    const std::size_t step = report.steps.empty() ? 0 : report.steps.size() - 1;
    report.violations.push_back(TransientViolation{kind, step, pair});
    obs::add(c_violations);
  }

  void check_invariants() {
    obs::add(c_inv_checks);
    // Connectivity is judged on the clean realization: a storm partition is
    // the storm's doing, not the executor's. Route validity is judged on
    // the live graph, but only for pairs the storm left reachable.
    const bool connected = servers_connected(*serve.graph);
    if (!connected) add_violation(ViolationKind::kDisconnected, 0);
    const bool storm_on = !serve.active.empty();
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> dist_memo;
    const auto reachable = [&](std::size_t i) {
      if (!storm_on) return true;
      const auto [src, dst] = report.pairs[i];
      auto it = dist_memo.find(src.value());
      if (it == dist_memo.end()) {
        it = dist_memo.emplace(src.value(), serve.live->bfs_distances(src))
                 .first;
      }
      return it->second[dst.index()] != Graph::kUnreachable;
    };
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      const std::vector<Path>& rs = serve.routes[i];
      if (rs.empty()) {
        // No installed route while the physical pair is connected: the
        // atomic baseline's rule hole.
        if (connected && reachable(i)) add_violation(ViolationKind::kBlackhole, i);
        continue;
      }
      for (const Path& path : rs) {
        if (has_repeated_node(path)) {
          add_violation(ViolationKind::kLoop, i);
        } else if (!is_valid_path(*serve.live, path)) {
          if (reachable(i)) add_violation(ViolationKind::kBlackhole, i);
        }
      }
    }
  }

  // Per-switch rule footprint of a route snapshot: one rule per switch hop.
  std::vector<std::uint64_t> footprint_of(
      const std::vector<std::vector<Path>>& snapshot) const {
    std::vector<std::uint64_t> per(serve.graph->node_count(), 0);
    for (const std::vector<Path>& rs : snapshot) {
      for (const Path& path : rs) {
        for (NodeId n : path) {
          if (is_switch(serve.graph->node(n).role)) ++per[n.index()];
        }
      }
    }
    return per;
  }

  // Splits the rule count of `paths` (those not also in `kept`) into
  // operations on live switches and operations skipped because the switch
  // is control-plane dead.
  void count_rules(const std::vector<Path>& paths, std::uint64_t& live_rules,
                   std::uint64_t& skipped,
                   const std::vector<Path>& kept = {}) const {
    for (const Path& path : paths) {
      if (std::find(kept.begin(), kept.end(), path) != kept.end()) continue;
      for (NodeId n : path) {
        if (!is_switch(serve.graph->node(n).role)) continue;
        if (dead[n.index()]) {
          ++skipped;
        } else {
          ++live_rules;
        }
      }
    }
  }

  // A switch the commanding controller cannot program: control-plane dead,
  // or islanded from the flat root by a control partition.
  bool blocked(NodeId n) const {
    return dead[n.index()] || partition_blocks(n);
  }

  // The atomic baseline's rule hole: every pair routed through `sw` goes
  // dark once the switch's rules are deleted. Returns whether any did.
  bool darken(NodeId sw) {
    bool any = false;
    for (std::size_t i = 0; i < serve.routes.size(); ++i) {
      const std::vector<Path>& rs = serve.routes[i];
      const bool uses =
          std::any_of(rs.begin(), rs.end(), [sw](const Path& path) {
            return std::find(path.begin(), path.end(), sw) != path.end();
          });
      if (!uses) continue;
      serve.routes[i].clear();
      serve.canonical[i].clear();
      serve.diverged[i] = false;
      any = true;
    }
    return any;
  }

  // The baseline's way back: a dark pair is routed on `target` once no
  // switch its target routes cross is still `pending` (unprogrammed).
  // Returns whether any pair came back.
  template <typename Pending>
  bool route_ready(const std::vector<std::vector<Path>>& target,
                   Pending&& pending) {
    bool any = false;
    for (std::size_t i = 0; i < serve.routes.size(); ++i) {
      if (!serve.routes[i].empty() || target[i].empty()) continue;
      const bool ready = std::none_of(
          target[i].begin(), target[i].end(), [&](const Path& path) {
            return std::any_of(path.begin(), path.end(), pending);
          });
      if (!ready) continue;
      serve.routes[i] = target[i];
      serve.canonical[i] = target[i];
      any = true;
    }
    return any;
  }

  // Applies (forward) or reverts (rollback) one OCS partition with
  // make-before-break patching. Returns false when a forward step exhausted
  // its retries; rollback steps retry unbounded and keep going regardless.
  bool rewire_partition(const std::vector<std::uint32_t>& members,
                        std::uint32_t pindex, const CompiledMode& goal,
                        bool rollback) {
    const std::vector<std::uint32_t>& fail = faults.fail_ocs_partitions;
    const bool forced_ocs_fail =
        !rollback && std::find(fail.begin(), fail.end(), pindex) != fail.end();
    std::vector<ConverterConfig> next = configs;
    for (std::uint32_t c : members) next[c] = goal.configs()[c];
    if (next == configs) return true;
    if (!opt.staged) {
      // The atomic baseline's single pass: no make-before-break (its rule
      // hole already darkened every pair), straight onto the goal mode's
      // graph, every pipe stalled for the rewire.
      if (!run_step(StepKind::kOcs, rollback, NodeId{}, pindex, 0, 0,
                    delay.ocs_reconfigure_s, forced_ocs_fail) &&
          !rollback) {
        return false;
      }
      configs = std::move(next);
      serve.graph = goal.graph_ptr();
      serve.refresh_live();
      push_point(delay.ocs_reconfigure_s, ConversionScope::kFullBlackout);
      return true;
    }
    auto next_graph = std::make_shared<const Graph>(tree.realize(next));

    // The intersection graph: links of the current realization that survive
    // the rewire. Any path on it is valid both before and after the pass.
    const std::vector<LinkId> removed = links_not_in(*serve.graph, *next_graph);
    const Graph safe = degrade(*serve.graph, FailureSet{removed, {}});
    struct PairPatch {
      std::size_t pair;
      std::vector<Path> paths;
      bool armed;  // solved on the next graph, activates when the pass lands
    };
    std::vector<PairPatch> patches;

    // Preferred solve graphs avoid dead switches as transit (their tables
    // cannot take the patch rules) and active storm failures (patching onto
    // a failed link trades one blackhole for another); the fallbacks only
    // keep a pair from being abandoned when those are its sole capacity.
    const FailureSet dead_set{{}, dead_list};
    const bool storm_on = !serve.active.empty();
    std::optional<PathCache> safe_cache, next_cache;
    std::optional<Graph> safe_live, next_live;
    std::optional<PathCache> safe_live_cache, next_live_cache;
    if (!dead_list.empty() || storm_on) {
      const auto minus_storm = [&](const Graph& g) {
        return storm_on ? degrade_mapped(g, *serve.reference, serve.active) : g;
      };
      safe_live.emplace(degrade(minus_storm(safe), dead_set));
      next_live.emplace(degrade(minus_storm(*next_graph), dead_set));
    }

    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      const std::vector<Path>& rs = serve.routes[i];
      if (rs.empty() || all_valid_on(*next_graph, rs)) continue;
      const auto [src, dst] = report.pairs[i];
      std::vector<Path> sol;
      bool armed = false;
      if (safe_live.has_value()) {
        sol = serve.paths_on(safe_live_cache, *safe_live, src, dst);
        if (sol.empty()) {
          sol = serve.paths_on(next_live_cache, *next_live, src, dst);
          armed = true;
        }
      }
      if (sol.empty()) {
        sol = serve.paths_on(safe_cache, safe, src, dst);
        armed = false;
      }
      if (sol.empty()) {
        sol = serve.paths_on(next_cache, *next_graph, src, dst);
        armed = true;
      }
      // A pair with no route even on the full graphs is physically
      // disconnected; leave it and let the checker report it.
      if (sol.empty()) continue;
      patches.push_back(PairPatch{i, std::move(sol), armed});
    }

    // Commits one pair's patch. A storm fold that lands mid-patch (between
    // chunks) can kill candidate paths solved before the fold: with live
    // re-planning the survivors stay, the casualties are topped back up
    // from a fresh solve and the pair is marked diverged (reconciled once
    // the plan routes come back); the baseline installs the stale solve
    // as-is and dangles whatever the storm broke. Pre-OCS commits fit
    // against the intersection graph minus the storm — a top-up path drawn
    // from the full live realization could ride a link the OCS pass is
    // about to delete, turning the fix into the next blackhole. Post-OCS
    // (armed) commits fit against `live` itself, already refreshed to the
    // new realization.
    bool fit_post_ocs = false;
    std::optional<Graph> fit_graph;      // pre-OCS: safe minus storm/dead
    std::optional<PathCache> fit_cache;  // reset whenever the fit graph dies
    const auto commit_patch = [&](PairPatch& p) {
      serve.canonical[p.pair] = p.paths;
      if (opt.live_replanning && !serve.active.empty() &&
          !all_valid_on(*serve.live, p.paths)) {
        if (!fit_post_ocs && !fit_graph.has_value()) {
          fit_graph.emplace(degrade(
              degrade_mapped(safe, *serve.reference, serve.active), dead_set));
        }
        const Graph& fg = fit_post_ocs ? *serve.live : *fit_graph;
        const auto [src, dst] = report.pairs[p.pair];
        std::vector<Path> fitted =
            targeted_patch(p.paths, fg, serve.paths_on(fit_cache, fg, src, dst),
                           p.paths.size());
        if (!fitted.empty()) {
          serve.diverged[p.pair] = fitted != p.paths;
          serve.routes[p.pair] = std::move(fitted);
          return;
        }
        // Nothing survives on live: the pair is storm-disconnected right
        // now. Install the plan anyway — the checker holds only reachable
        // pairs, and reconciliation restores the plan once the storm
        // drains.
      }
      serve.routes[p.pair] = p.paths;
      serve.diverged[p.pair] = false;
    };

    // The patch lands as bounded rule batches with a step boundary between
    // them. With no failure schedule wired in there is nothing to detect
    // mid-step, so calm executions keep the monolithic patch and skip the
    // per-batch channel round-trips. A re-plan fired by a fold between
    // batches solves against the intersection, not the full realization —
    // see replan_pass.
    mbb_intersection = &safe;
    const bool landed = land_batches(
        patches.size(), storm != nullptr ? kPatchBatchRules : 0, pindex,
        rollback, /*replan=*/false,
        [&](std::size_t j, auto& a, auto& d, auto& s) {
          count_rules(serve.routes[patches[j].pair], d, s);
          count_rules(patches[j].paths, a, s);
        },
        [&](std::size_t begin, std::size_t end) {
          bool any_immediate = false;
          for (std::size_t j = begin; j < end; ++j) {
            ++report.pairs_patched;
            obs::add(c_patched);
            if (!patches[j].armed) {
              commit_patch(patches[j]);
              any_immediate = true;
            }
          }
          if (any_immediate) push_point(0.0, ConversionScope::kChangedOnly);
        },
        [&] {
          const std::size_t folded = storm_next;
          (void)boundary(Gate::kBestEffort);
          if (storm_next != folded) {
            fit_graph.reset();
            fit_cache.reset();
          }
        });
    mbb_intersection = nullptr;
    if (!landed) return false;

    const bool ok = run_step(StepKind::kOcs, rollback, NodeId{}, pindex, 0, 0,
                             delay.ocs_reconfigure_s, forced_ocs_fail);
    if (!ok && !rollback) return false;
    configs = std::move(next);
    serve.graph = std::move(next_graph);
    serve.refresh_live();
    fit_post_ocs = true;  // the realization changed: fit against live now
    fit_graph.reset();
    fit_cache.reset();
    for (PairPatch& p : patches) {
      if (p.armed) commit_patch(p);
    }
    push_point(delay.ocs_reconfigure_s, ConversionScope::kChangedOnly);
    return true;
  }

  // -- the stage machine ------------------------------------------------------

  // The atomic baseline has no durable epoch state to abort to or rescan:
  // its boundaries are always best effort.
  Gate forward_gate() const {
    return opt.staged ? Gate::kAbortable : Gate::kBestEffort;
  }

  // Runs one stage through its phases; on a failed phase rolls the applied
  // ones back to st.from (the last checkpoint) and returns false.
  bool run_stage(Stage& st) {
    // Storm re-plans steer toward the stage target's repaired plan; the
    // baseline has none to steer toward.
    stage_target = opt.staged ? st.to : nullptr;
    stage_live.reset();
    replan_failed = false;
    const std::span<const Phase> phases =
        opt.staged ? std::span<const Phase>{kStagedPhases}
                   : std::span<const Phase>{kAtomicPhases};
    bool ok = true;
    for (std::size_t p = 0; p < phases.size() && ok; ++p) {
      ok = run_phase(phases[p], st);
      if (ok) continue;
      // Roll the applied phases, the failed one included, back in reverse.
      // Rollback steps retry unbounded: the channel is lossy, not dead.
      in_rollback = true;
      stage_target = opt.staged ? st.from : nullptr;
      stage_live.reset();
      for (std::size_t j = p + 1; j-- > 0;) undo_phase(phases[j], st);
      in_rollback = false;
    }
    stage_target = nullptr;
    stage_live.reset();
    return ok;
  }

  bool run_phase(Phase phase, Stage& st) {
    switch (phase) {
      case Phase::kOcs: return ocs_passes(st);
      case Phase::kRuleSweep: return rule_sweep(st);
      case Phase::kEpochFlip: return epoch_flip(st);
      case Phase::kGcSweep: return gc_sweep(st);
    }
    return false;
  }

  void undo_phase(Phase phase, Stage& st) {
    switch (phase) {
      case Phase::kOcs: undo_ocs_passes(st); break;
      case Phase::kRuleSweep: undo_rule_sweep(st); break;
      case Phase::kEpochFlip: break;  // a failed barrier changed nothing
      case Phase::kGcSweep: undo_gc_sweep(st); break;
    }
  }

  // A forward phase's durable-state scan: each item not yet done(i) runs
  // step(i) behind a step boundary; a takeover restarts the scan, so the
  // standby's position comes from the network, not the dead primary's
  // memory. Returns false when a boundary aborts or a step fails.
  template <typename Done, typename Step>
  bool scan(std::size_t count, Done&& done, Step&& step) {
    for (std::size_t i = 0; i < count;) {
      if (done(i)) {
        ++i;
        continue;
      }
      switch (boundary(forward_gate())) {
        case Boundary::kAbort: return false;
        case Boundary::kRescan: i = 0; continue;
        case Boundary::kContinue: break;
      }
      if (!step(i)) return false;
      ++i;
    }
    return true;
  }

  // The stage's OCS passes in order; applied passes no-op against the
  // configs the OCS reports.
  bool ocs_passes(Stage& st) {
    return scan(
        st.partitions.size(), [](std::size_t) { return false; },
        [&](std::size_t p) {
          return rewire_partition(st.partitions[p],
                                  st.ocs_base + static_cast<std::uint32_t>(p),
                                  *st.to, false);
        });
  }

  // Un-rewires the passes in reverse (unapplied ones no-op against the
  // durable configs), then — staged — reinstates the checkpoint's canonical
  // routes over whatever patches and re-plans left installed.
  void undo_ocs_passes(Stage& st) {
    for (std::size_t p = st.partitions.size(); p-- > 0;) {
      // Without make-before-break nothing lands ahead of the OCS step: a
      // pass that never moved has nothing to revert.
      if (!opt.staged && configs == st.from->configs()) continue;
      (void)boundary(Gate::kBestEffort);
      rewire_partition(st.partitions[p],
                       st.ocs_base + static_cast<std::uint32_t>(p), *st.from,
                       true);
    }
    if (!opt.staged) return;
    (void)boundary(Gate::kBestEffort);
    std::uint64_t adds = 0;
    std::uint64_t dels = 0;
    std::uint64_t skipped = 0;
    for (std::size_t i = 0; i < serve.routes.size(); ++i) {
      if (serve.routes[i] == (*st.from_routes)[i]) continue;
      count_rules(serve.routes[i], dels, skipped);
      count_rules((*st.from_routes)[i], adds, skipped);
    }
    run_step(StepKind::kRuleRestore, true, NodeId{}, 0, adds, dels, 0.0,
             false);
    report.rules_skipped_dead += skipped;
    install_canonical(*st.from_routes);
    push_point(0.0, ConversionScope::kChangedOnly);
    // A recovery landing here still reconciles to plan.
    (void)boundary(Gate::kDrain);
  }

  // Installs the stage target's rules switch by switch: staged, under the
  // new epoch tag (inert until the flip; the per-switch counts are the
  // durable protocol state); the baseline's go live as they land.
  bool rule_sweep(Stage& st) {
    st.to_routes = serve.resolve(*st.to);
    st.to_fp = footprint_of(st.to_routes);
    st.installed.assign(st.to_fp.size(), 0);
    const auto pending = [&st](NodeId n) {
      return st.to_fp[n.index()] != 0 && st.installed[n.index()] == 0;
    };
    return scan(
        st.to_fp.size(),
        [&](std::size_t n) { return st.to_fp[n] == 0 || st.installed[n] != 0; },
        [&](std::size_t n) {
          const NodeId sw{static_cast<std::uint32_t>(n)};
          if (!run_step(StepKind::kRuleAdd, false, sw, 0, st.to_fp[n], 0, 0.0,
                        blocked(sw))) {
            return false;
          }
          st.installed[n] = st.to_fp[n];
          if (!opt.staged && route_ready(st.to_routes, pending)) {
            push_point(0.0, ConversionScope::kChangedOnly);
          }
          return true;
        });
  }

  // Collects the installed incoming rules in reverse install order; the
  // baseline's pairs go dark again before the circuits revert under them.
  void undo_rule_sweep(Stage& st) {
    for (std::uint32_t n = static_cast<std::uint32_t>(st.installed.size());
         n-- > 0;) {
      if (st.installed[n] == 0) continue;
      // Unbounded retries must not stall against a partition the root
      // cannot cross: the uncollected rules are inert under the
      // checkpoint's epoch, so skip and count them instead.
      if (partition_blocks(NodeId{n})) {
        report.rules_skipped_dead += st.installed[n];
        st.installed[n] = 0;
        continue;
      }
      (void)boundary(Gate::kBestEffort);
      run_step(StepKind::kRuleDelete, true, NodeId{n}, 0, 0, st.installed[n],
               0.0, false);
      st.installed[n] = 0;
      if (!opt.staged && darken(NodeId{n})) {
        push_point(0.0, ConversionScope::kFullBlackout);
      }
    }
  }

  // The commit point. The staged barrier is root-coordinated under both
  // control-plane shapes: while any Pod carrying new-epoch rules is
  // islanded it fails, and the stage rolls back instead of committing a
  // mixed-epoch rule set. The baseline's flip is bookkeeping only.
  bool epoch_flip(Stage& st) {
    if (opt.staged) {
      if (boundary(Gate::kAbortable) == Boundary::kAbort) return false;
      st.retiring = footprint_of(serve.routes);
      bool islanded = false;
      for (std::uint32_t n = 0; n < st.to_fp.size() && !islanded; ++n) {
        islanded = st.to_fp[n] != 0 && partitioned(NodeId{n});
      }
      if (!run_step(StepKind::kEpochFlip, false, NodeId{}, 0, 0, 0, 0.0,
                    islanded)) {
        return false;
      }
    }
    epoch = st.epoch;
    if (opt.staged) install_canonical(st.to_routes);
    push_point(0.0, ConversionScope::kChangedOnly);
    return true;
  }

  // Deletes the outgoing rules switch by switch. Staged, this is post-commit
  // GC: best effort, and an unreachable switch keeps its stale rules (inert
  // under the new epoch). The baseline deletes before its OCS pass: pairs
  // go dark, and a switch that never acks fails the stage.
  bool gc_sweep(Stage& st) {
    if (!opt.staged) st.retiring = footprint_of(serve.routes);
    st.deleted.assign(st.retiring.size(), false);
    for (std::uint32_t n = 0; n < st.retiring.size(); ++n) {
      if (st.retiring[n] == 0) continue;
      const bool unreachable = blocked(NodeId{n});
      if (opt.staged && unreachable) {
        report.rules_skipped_dead += st.retiring[n];
        continue;
      }
      (void)boundary(Gate::kBestEffort);
      const bool ok =
          run_step(StepKind::kRuleDelete, false, NodeId{n}, 0, 0,
                   st.retiring[n], 0.0, !opt.staged && unreachable);
      if (opt.staged) continue;
      if (!ok) return false;
      st.deleted[n] = true;
      if (darken(NodeId{n})) push_point(0.0, ConversionScope::kFullBlackout);
    }
    if (opt.staged) (void)boundary(Gate::kDrain);
    return true;
  }

  // The baseline's way back: reinstalls the outgoing rules on every switch
  // that deleted them; a pair comes back once all its switches are whole.
  void undo_gc_sweep(Stage& st) {
    const auto missing = [&st](NodeId n) { return st.deleted[n.index()]; };
    for (std::uint32_t n = 0; n < st.deleted.size(); ++n) {
      if (!st.deleted[n]) continue;
      (void)boundary(Gate::kBestEffort);
      run_step(StepKind::kRuleRestore, true, NodeId{n}, 0, st.retiring[n], 0,
               0.0, false);
      st.deleted[n] = false;
      if (route_ready(*st.from_routes, missing)) {
        push_point(0.0, ConversionScope::kFullBlackout);
      }
    }
  }
};

// The atomic baseline's rule hole, made explicit for the packet simulator:
// every boundary at which some pair has no installed route stalls until the
// first later boundary where every pair is routed again.
void finalize_blackout_windows(ExecutionReport& report) {
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    TimelinePoint& pt = report.timeline[k];
    const bool any_dark = std::any_of(
        pt.routes.begin(), pt.routes.end(),
        [](const std::vector<Path>& rs) { return rs.empty(); });
    if (!any_dark) continue;
    double restored = report.finish_s;
    for (std::size_t j = k + 1; j < report.timeline.size(); ++j) {
      const bool still_dark = std::any_of(
          report.timeline[j].routes.begin(), report.timeline[j].routes.end(),
          [](const std::vector<Path>& rs) { return rs.empty(); });
      if (!still_dark) {
        restored = report.timeline[j].t;
        break;
      }
    }
    pt.blackout_s = std::max(pt.blackout_s, restored - pt.t);
    pt.scope = ConversionScope::kFullBlackout;
  }
}

void compute_blackhole_integral(ExecutionReport& report) {
  report.total_blackhole_s = 0.0;
  report.max_pair_blackhole_s = 0.0;
  for (double d : pair_blackhole_s(report)) {
    report.total_blackhole_s += d;
    report.max_pair_blackhole_s = std::max(report.max_pair_blackhole_s, d);
  }
}

}  // namespace

ConversionExecutor::ConversionExecutor(const Controller& controller,
                                       ConversionExecOptions options)
    : controller_{&controller}, options_{std::move(options)} {}

ExecutionReport ConversionExecutor::execute(
    const CompiledMode& from, const CompiledMode& to,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const ConversionFaults& faults, double t0_s) const {
  return execute_under_storm(from, to, pairs, FailureSchedule{}, faults, t0_s);
}

ExecutionReport ConversionExecutor::execute_under_storm(
    const CompiledMode& from, const CompiledMode& to,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const FailureSchedule& storm, const ConversionFaults& faults,
    double t0_s) const {
  options_.channel.validate();
  controller_->options().delay.validate();
  const FlatTree& tree = controller_->tree();
  require(from.configs().size() == tree.converters().size() &&
              to.configs().size() == tree.converters().size(),
          "ConversionExecutor: modes not compiled from this controller's tree");
  require(t0_s >= 0.0, "ConversionExecutor: t0_s must be >= 0");
  require(options_.failover_takeover_s >= 0.0,
          "ConversionExecutor: failover_takeover_s must be >= 0");
  require(!std::isnan(faults.kill_primary_at_s),
          "ConversionExecutor: kill_primary_at_s must not be NaN");
  const Graph& from_graph = from.graph();
  for (NodeId sw : faults.dead_switches) {
    require(names_switch(from_graph, sw),
            "ConversionExecutor: dead_switches must name switches");
  }
  require(options_.ocs_partitions != 0,
          "ConversionExecutor: ocs_partitions must be >= 1");
  require(options_.staged || !options_.stage_checkpoints,
          "ConversionExecutor: stage_checkpoints requires the staged protocol");
  require(options_.staged || faults.partitions.empty(),
          "ConversionExecutor: control partitions require the staged protocol");
  validate_partitions(faults.partitions, tree.clos().pods,
                      "ConversionExecutor");
  storm.validate();
  for (const FailureEvent& e : storm.events()) {
    for (LinkId id : e.elements.links) {
      require(id.index() < from_graph.link_count(),
              "ConversionExecutor: storm link ids must name links of the "
              "origin realization");
    }
    for (NodeId sw : e.elements.switches) {
      require(names_switch(from_graph, sw),
              "ConversionExecutor: storm switches must name switches");
    }
  }

  ExecutionReport report;
  report.staged = options_.staged;
  report.start_s = t0_s;
  report.pairs.assign(pairs.begin(), pairs.end());

  obs::MetricsRegistry* reg = options_.sink.metrics();
  Exec ex{.tree = tree,
          .controller = *controller_,
          .opt = options_,
          .delay = controller_->options().delay,
          .faults = faults,
          .report = report,
          .rng = Rng{options_.seed},
          .jitter_rng = Rng{options_.seed ^ 0x9e3779b97f4a7c15ULL},
          .serve = ServingState{from, report.pairs}};
  ex.now = t0_s;
  ex.configs = from.configs();
  if (!storm.empty()) ex.storm = &storm;
  if (reg != nullptr) {
    ex.c_steps = &reg->counter("conv_exec.steps");
    ex.c_step_failures = &reg->counter("conv_exec.step_failures");
    ex.c_retries = &reg->counter("conv_exec.retries");
    ex.c_dropped = &reg->counter("conv_exec.messages_dropped");
    ex.c_patched = &reg->counter("conv_exec.pairs_patched");
    ex.c_inv_checks = &reg->counter("conv_exec.invariant_checks");
    ex.c_violations = &reg->counter("conv_exec.violations");
    ex.c_replan_events = &reg->counter("conv_exec.replan.events");
    ex.c_replan_pairs = &reg->counter("conv_exec.replan.pairs");
    ex.c_replan_steps = &reg->counter("conv_exec.replan.steps");
    ex.c_ckpt_committed = &reg->counter("conv_exec.checkpoint.committed");
    ex.c_ckpt_rollbacks = &reg->counter("conv_exec.checkpoint.rollbacks");
    ex.c_fo_takeovers = &reg->counter("conv_exec.failover.takeovers");
    ex.c_fo_reissued = &reg->counter("conv_exec.failover.steps_reissued");
    ex.h_attempts =
        &reg->histogram("conv_exec.step_attempts", {1, 2, 4, 8, 16, 32, 64});
  }
  ex.tracer = options_.sink.tracer();
  ex.dead.assign(from_graph.node_count(), false);
  for (NodeId sw : faults.dead_switches) ex.dead[sw.index()] = true;
  for (std::uint32_t n = 0; n < ex.dead.size(); ++n) {
    if (ex.dead[n]) ex.dead_list.push_back(NodeId{n});
  }

  report.checkpoints.push_back(CheckpointRecord{
      0, t0_s, 0, from.assignment(), from.configs(), ex.serve.routes});

  // Pre-history: storm events already due at t0 fold silently into the
  // starting state (they are inherited conditions, not execution events).
  const bool inherited_storm = ex.fold_due();
  ex.push_point(0.0, ConversionScope::kChangedOnly);  // the pre-conversion state
  if (inherited_storm && options_.live_replanning) ex.replan_pass();

  // The stage sequence: gradual_plan's per-Pod assignments when checkpoints
  // are on (each intermediate compiled here), else the target alone.
  std::vector<CompiledMode> interim;
  std::vector<const CompiledMode*> stage_seq;
  if (options_.stage_checkpoints) {
    const std::vector<ModeAssignment> plan =
        Controller::gradual_plan(from.assignment(), to.assignment());
    interim.reserve(plan.size());
    for (std::size_t s = 0; s + 1 < plan.size(); ++s) {
      interim.push_back(controller_->compile(plan[s], to.k()));
    }
    for (const CompiledMode& m : interim) stage_seq.push_back(&m);
  }
  stage_seq.push_back(&to);
  report.stages_total = static_cast<std::uint32_t>(stage_seq.size());
  // Reserved up front: each stage reads its checkpoint's routes in place.
  report.checkpoints.reserve(stage_seq.size() + 1);

  // Each committed stage is a durable checkpoint; a failed one has rolled
  // back to the previous checkpoint, and the conversion stops there.
  bool committed = true;
  Stage st;
  st.from = &from;
  st.from_routes = &report.checkpoints.back().routes;
  for (std::size_t s = 0; s < stage_seq.size(); ++s) {
    st.to = stage_seq[s];
    st.epoch = static_cast<std::uint32_t>(s) + 1;
    // The baseline moves every changed converter in one pass.
    st.partitions =
        make_partitions(tree, st.from->configs(), st.to->configs(),
                        options_.staged ? options_.ocs_partitions : 1);
    if (!ex.run_stage(st)) {
      committed = false;
      obs::add(ex.c_ckpt_rollbacks);
      break;
    }
    ++report.stages_committed;
    obs::add(ex.c_ckpt_committed);
    report.checkpoints.push_back(CheckpointRecord{
        st.epoch, ex.now, ex.epoch, st.to->assignment(), st.to->configs(),
        st.to_routes});
    st.from = st.to;
    st.from_routes = &report.checkpoints.back().routes;
    st.ocs_base += static_cast<std::uint32_t>(st.partitions.size());
  }

  if (committed) {
    report.outcome = ConversionOutcome::kConverted;
  } else if (report.stages_committed > 0) {
    report.outcome = ConversionOutcome::kPartial;
  } else {
    report.outcome = ConversionOutcome::kRolledBack;
  }
  report.terminal_assignment = report.checkpoints.back().assignment;
  report.terminal_configs = ex.configs;
  report.finish_s = ex.now;
  // Bind the storm to the timeline at its *physical* times. The executor
  // only observes damage at step boundaries (detection latency), but the
  // data plane experiences a dead link the instant it dies: each event time
  // becomes a timeline point carrying the then-prevailing routes, and every
  // point's graph is degraded by the storm state active at its time. The
  // blackhole integral therefore charges a broken route from the moment of
  // failure until the executor re-planned it or the link physically
  // recovered — whichever came first.
  if (ex.storm != nullptr) {
    const std::vector<FailureEvent>& evs = storm.events();
    for (std::size_t e = 0; e < evs.size();) {
      const double t = evs[e].time_s;
      while (e < evs.size() && evs[e].time_s == t) ++e;
      if (t <= t0_s || t >= report.finish_s) continue;
      const auto pos = std::upper_bound(
          report.timeline.begin(), report.timeline.end(), t,
          [](double tt, const TimelinePoint& p) { return tt < p.t; });
      TimelinePoint pt = *(pos - 1);  // timeline[0] sits at t0 < t
      pt.t = t;
      pt.blackout_s = 0.0;
      pt.scope = ConversionScope::kChangedOnly;
      report.timeline.insert(pos, std::move(pt));
    }
    for (TimelinePoint& pt : report.timeline) {
      const FailureSet active = storm.active_at(pt.t);  // sorted
      if (active.empty()) continue;
      pt.graph = std::make_shared<const Graph>(
          degrade_mapped(*pt.graph, *ex.serve.reference, active));
    }
  }
  finalize_blackout_windows(report);
  compute_blackhole_integral(report);
  if (reg != nullptr) {
    reg->counter("conv_exec.executions").add();
    reg->counter(committed ? "conv_exec.converted" : "conv_exec.rolled_back")
        .add();
    reg->counter("conv_exec.rules_added").add(report.rules_added);
    reg->counter("conv_exec.rules_deleted").add(report.rules_deleted);
    reg->counter("conv_exec.rules_skipped_dead").add(report.rules_skipped_dead);
    reg->gauge("conv_exec.max_duration_s")
        .set_max(report.finish_s - report.start_s);
    reg->gauge("conv_exec.max_blackhole_s").set_max(report.total_blackhole_s);
  }
  return report;
}

// Route-availability integral: each timeline interval charges every pair
// its darkness on that interval's graph (charge_darkness); the atomic
// baseline's rule hole, a pair with no routes at all, charges it whole.
std::vector<double> pair_blackhole_s(const ExecutionReport& report) {
  std::vector<double> dark(report.pairs.size(), 0.0);
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    const TimelinePoint& pt = report.timeline[k];
    const double t_end = k + 1 < report.timeline.size()
                             ? report.timeline[k + 1].t
                             : report.finish_s;
    const double dt = std::max(0.0, t_end - pt.t);
    if (dt > 0.0) charge_darkness(dark, *pt.graph, pt.routes, dt);
  }
  return dark;
}

// -- simulator drivers --------------------------------------------------------

ConversionDrive make_conversion_drive(const ExecutionReport& report) {
  if (report.timeline.empty()) {
    throw std::invalid_argument("make_conversion_drive: empty timeline");
  }
  Graph merged = *report.timeline.front().graph;
  for (std::size_t k = 1; k < report.timeline.size(); ++k) {
    merged = graph_union(merged, *report.timeline[k].graph);
  }
  ConversionDrive drive;
  drive.base = std::make_shared<const Graph>(std::move(merged));

  // Per point: the union links absent from that point's operating topology
  // (ascending ids — links_not_in iterates in id order).
  std::vector<std::vector<LinkId>> absent(report.timeline.size());
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    absent[k] = links_not_in(*drive.base, *report.timeline[k].graph);
  }

  // Event times are nudged strictly increasing across points so the k-th
  // refresh the simulator performs always corresponds to the k-th emitted
  // event (equal-time refreshes of one point are interchangeable — they
  // serve the same snapshot).
  double last_t = -1.0;
  constexpr double kNudge = 1e-9;
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    const double t = std::max(report.timeline[k].t, last_t + kNudge);
    if (k == 0) {
      // Union links outside the initial state are dark from the start.
      if (!absent[0].empty()) {
        drive.schedule.fail_at(t, FailureSet{absent[0], {}});
        drive.refresh_point.push_back(0);
        last_t = t;
      }
      continue;
    }
    std::vector<LinkId> now_failed;
    std::vector<LinkId> now_recovered;
    std::set_difference(absent[k].begin(), absent[k].end(),
                        absent[k - 1].begin(), absent[k - 1].end(),
                        std::back_inserter(now_failed));
    std::set_difference(absent[k - 1].begin(), absent[k - 1].end(),
                        absent[k].begin(), absent[k].end(),
                        std::back_inserter(now_recovered));
    std::size_t emitted = 0;
    if (!now_failed.empty()) {
      drive.schedule.fail_at(t, FailureSet{now_failed, {}});
      drive.refresh_point.push_back(k);
      ++emitted;
    }
    if (!now_recovered.empty()) {
      drive.schedule.recover_at(t, FailureSet{now_recovered, {}});
      drive.refresh_point.push_back(k);
      ++emitted;
    }
    if (emitted == 0 &&
        report.timeline[k].routes != report.timeline[k - 1].routes) {
      // Route-only boundary: an empty recover event still triggers the
      // refresh that installs this point's snapshot.
      drive.schedule.recover_at(t, FailureSet{});
      drive.refresh_point.push_back(k);
      ++emitted;
    }
    if (emitted > 0) last_t = t;
  }
  return drive;
}

namespace {

std::shared_ptr<const std::unordered_map<std::uint64_t, std::size_t>>
pair_index_of(const ExecutionReport& report) {
  auto index =
      std::make_shared<std::unordered_map<std::uint64_t, std::size_t>>();
  for (std::size_t i = 0; i < report.pairs.size(); ++i) {
    (*index)[directed_pair_key(report.pairs[i].first,
                               report.pairs[i].second)] = i;
  }
  return index;
}

}  // namespace

std::vector<FluidFlowResult> run_fluid_with_conversion(
    const ExecutionReport& report, const Workload& flows,
    const FluidOptions& options, ScheduleRunStats* stats) {
  const ConversionDrive drive = make_conversion_drive(report);
  const auto index = pair_index_of(report);
  const auto provider_for = [&report, index](std::size_t point)
      -> PathProvider {
    return [&report, index, point](NodeId src, NodeId dst,
                                   std::uint32_t) -> std::vector<Path> {
      const auto it = index->find(directed_pair_key(src, dst));
      if (it == index->end()) return {};
      return report.timeline[point].routes[it->second];
    };
  };
  FluidSimulator sim{*drive.base, provider_for(0), options};
  std::size_t next = 0;
  const RoutingRefresh refresh = [&](const Graph&) -> PathProvider {
    const std::size_t point = next < drive.refresh_point.size()
                                  ? drive.refresh_point[next]
                                  : report.timeline.size() - 1;
    ++next;
    return provider_for(point);
  };
  return sim.run_with_schedule(flows, drive.schedule, 0.0, refresh, stats);
}

void drive_packet_sim(PacketSim& sim, const ExecutionReport& report,
                      const Workload& flows, double horizon_s) {
  if (report.timeline.empty()) {
    throw std::invalid_argument("drive_packet_sim: empty timeline");
  }
  const auto index = pair_index_of(report);
  for (std::size_t k = 1; k < report.timeline.size(); ++k) {
    const TimelinePoint& pt = report.timeline[k];
    if (pt.t >= horizon_s) break;
    sim.run_until(pt.t);
    sim.begin_segment();
    const auto paths_for = [&](std::uint32_t fi) -> std::vector<Path> {
      if (fi < flows.size()) {
        const Flow& f = flows[fi];
        const auto it = index->find(
            directed_pair_key(NodeId{f.src}, NodeId{f.dst}));
        if (it != index->end() && !pt.routes[it->second].empty()) {
          return pt.routes[it->second];
        }
      }
      // Black-holed (or untracked) pair: the flow keeps its current paths —
      // the blackout window models the hole; apply_conversion rejects empty
      // path sets by contract.
      return sim.flow_paths(fi);
    };
    sim.apply_conversion(*pt.graph, paths_for, pt.blackout_s, pt.scope);
  }
  sim.run_until(horizon_s);
}

std::vector<Path> conversion_paths_for(const ExecutionReport& report,
                                       const Flow& flow, std::size_t point) {
  if (point >= report.timeline.size()) {
    throw std::out_of_range("conversion_paths_for: point out of range");
  }
  for (std::size_t i = 0; i < report.pairs.size(); ++i) {
    if (report.pairs[i].first.value() == flow.src &&
        report.pairs[i].second.value() == flow.dst) {
      return report.timeline[point].routes[i];
    }
  }
  return {};
}

std::vector<std::pair<NodeId, NodeId>> workload_pairs(const Graph& graph,
                                                      const Workload& flows) {
  const std::vector<NodeId> servers = graph.servers();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(flows.size());
  for (const Flow& f : flows) {
    pairs.emplace_back(servers[f.src], servers[f.dst]);
  }
  return pairs;
}

RepairRun run_fluid_with_repair(const Controller& controller,
                                const ModeAssignment& assignment,
                                const Workload& flows,
                                const FailureSchedule& schedule,
                                double repair_lag_s,
                                const FluidOptions& options) {
  if (schedule.events().empty()) {
    throw std::invalid_argument("run_fluid_with_repair: empty schedule");
  }
  RepairRun out;
  const std::uint32_t k = controller.k_for(assignment);
  CompiledMode live = controller.compile(assignment, k);
  FluidSimulator baseline{live.graph(), path_provider(live), options};
  out.base = baseline.run(flows);
  out.plan = controller.plan_repair(live, schedule.events().front().elements,
                                    RepairOptions{});
  const RepairPlan& plan = out.plan;
  const CompiledMode pre = controller.compile(assignment, k);
  const Graph sim_graph = graph_union(pre.graph(), *plan.graph);
  FluidSimulator sim{sim_graph, path_provider(pre), options};
  out.repair_lag_s = repair_lag_s >= 0 ? repair_lag_s : plan.total_s();
  const RoutingRefresh refresh = [&live](const Graph&) {
    return path_provider(live);
  };
  out.failed = sim.run_with_schedule(flows, schedule, out.repair_lag_s,
                                     refresh, &out.sched);
  return out;
}

}  // namespace flattree
