// The benchmark's workloads and the helpers they share.
//
// A workload is set up from its seed (fabric, controllers and every
// generated input) and then runs one round: one complete job through the
// libraries' public APIs. A run sets up afresh before every round; all
// rounds of a run repeat the same seeded inputs, so every round's digest
// must be identical.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "control/conversion_exec.h"
#include "control/controller.h"
#include "exec/pool.h"
#include "harness/report.h"
#include "harness/speed.h"
#include "harness/trace.h"
#include "net/rng.h"
#include "obs/sink.h"

namespace perfbench {

// Per-operation latencies of one run, in milliseconds.
struct Samples {
  std::vector<double> compile_ms;  // rule-counted Controller::compile
  std::vector<double> convert_ms;  // one ConversionExecutor execution
  std::vector<double> repair_ms;   // one Controller::plan_repair

  // Sample counts, to scale a round's samples once it has ended.
  struct Marks {
    std::size_t compile{0}, convert{0}, repair{0};
  };
  [[nodiscard]] Marks marks() const {
    return {compile_ms.size(), convert_ms.size(), repair_ms.size()};
  }
  // Multiplies the samples taken since `from` by `scale`.
  void scale_from(const Marks& from, double scale) {
    perfbench::scale_from(compile_ms, from.compile, scale);
    perfbench::scale_from(convert_ms, from.convert, scale);
    perfbench::scale_from(repair_ms, from.repair, scale);
  }
};

struct RoundContext {
  Tracer& tracer;
  Ops& ops;
  Digest& digest;
  Samples& samples;
  flattree::exec::ThreadPool& pool;
  // The round's sink, the one its workload was set up with: traced rounds
  // attach the layers' metrics registry through it; untraced rounds pass
  // it empty.
  const flattree::obs::ObsSink& sink;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual void round(RoundContext& ctx) = 0;
};

// Sets a workload up for one round. Its controllers report to `sink`, the
// sink of the round it is set up for.
[[nodiscard]] std::unique_ptr<Workload> make_control(
    std::uint64_t seed, const flattree::obs::ObsSink& sink);
[[nodiscard]] std::unique_ptr<Workload> make_closed_loop(
    std::uint64_t seed, const flattree::obs::ObsSink& sink);
[[nodiscard]] std::unique_ptr<Workload> make_packet(
    std::uint64_t seed, const flattree::obs::ObsSink& sink);

// -- shared helpers ---------------------------------------------------------

using PairList = std::vector<std::pair<flattree::NodeId, flattree::NodeId>>;

// Unique (src, dst) server pairs of a flow list, sorted.
[[nodiscard]] PairList pairs_of(const flattree::Workload& flows);

// Controller::compile with rule counting, one compile sample.
[[nodiscard]] flattree::CompiledMode timed_compile(
    RoundContext& ctx, const flattree::Controller& controller,
    const flattree::ModeAssignment& assignment, std::uint32_t k);

// Controller::plan_repair, one repair sample.
[[nodiscard]] flattree::RepairPlan timed_repair(
    RoundContext& ctx, const flattree::Controller& controller,
    flattree::CompiledMode& mode, const flattree::FailureSet& failures);

// A link's endpoints, lower node id first.
[[nodiscard]] std::pair<flattree::NodeId, flattree::NodeId> hop_of(
    const flattree::Graph& graph, flattree::LinkId link);

// The fabric hops (switch to switch, lower node id first) that the mode's
// installed routes for `pairs` cross, sorted.
[[nodiscard]] std::vector<std::pair<flattree::NodeId, flattree::NodeId>>
route_hops(flattree::CompiledMode& mode, const PairList& pairs);

// The id in `graph` of the link between a hop's two nodes.
[[nodiscard]] flattree::LinkId link_of(
    const flattree::Graph& graph,
    const std::pair<flattree::NodeId, flattree::NodeId>& hop);

// A seeded fabric link (switch to switch) that the mode's installed routes
// for `pairs` cross, as an id in mode.graph(). Throws when there is none.
[[nodiscard]] flattree::LinkId pick_route_link(flattree::CompiledMode& mode,
                                               const PairList& pairs,
                                               flattree::Rng& rng);

// Every tracked pair still has routes, and every route avoids the failed
// switches and node pairs and hops only across adjacencies of the
// repaired graph.
[[nodiscard]] bool repaired_paths_avoid(
    flattree::CompiledMode& mode, const PairList& pairs,
    std::span<const flattree::NodeId> failed_switches,
    std::span<const std::pair<flattree::NodeId, flattree::NodeId>>
        failed_links);

// The conversion's terminal contract: terminal configs are the last
// checkpoint's; no transient violation except blackholes recorded while a
// storm was active (steps starting at or before `storm_end_s`, the storm's
// last event; the storm-tolerant executor reports its fold -> re-plan gap
// that way by design); and, once the storm has ended before the execution
// finished, the final timeline state runs that checkpoint's graph and
// canonical routes bit-for-bit. Calm conversions pass -infinity.
inline constexpr double kCalm = -std::numeric_limits<double>::infinity();
[[nodiscard]] bool conversion_contract_holds(
    const flattree::Controller& controller,
    const flattree::ExecutionReport& report, double storm_end_s);

void digest_report(Digest& digest, const flattree::ExecutionReport& report);

// One failure drill: a fresh rule-counted compile of `assignment` (one
// compile sample), a seeded route-carrying fabric link fails, the
// controller plans the repair (one repair sample), and the repaired routes
// are checked.
void failure_drill(RoundContext& ctx, const flattree::Controller& controller,
                   const flattree::ModeAssignment& assignment,
                   std::uint32_t k, const PairList& pairs, flattree::Rng& rng);

}  // namespace perfbench
