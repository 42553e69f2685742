#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/flat_tree.h"
#include "net/failures.h"
#include "workloads/workload.h"

namespace perfbench {

using namespace flattree;

PairList pairs_of(const flattree::Workload& flows) {
  std::set<std::pair<NodeId, NodeId>> unique;
  for (const Flow& f : flows) {
    if (f.src != f.dst) unique.emplace(NodeId{f.src}, NodeId{f.dst});
  }
  return {unique.begin(), unique.end()};
}

CompiledMode timed_compile(RoundContext& ctx, const Controller& controller,
                           const ModeAssignment& assignment,
                           std::uint32_t k) {
  auto span = ctx.tracer.span("control.compile");
  CompiledMode mode = controller.compile(assignment, k);
  ctx.samples.compile_ms.push_back(span.close() * 1e3);
  return mode;
}

RepairPlan timed_repair(RoundContext& ctx, const Controller& controller,
                        CompiledMode& mode, const FailureSet& failures) {
  auto span = ctx.tracer.span("control.repair");
  RepairPlan plan = controller.plan_repair(mode, failures);
  ctx.samples.repair_ms.push_back(span.close() * 1e3);
  return plan;
}

std::pair<NodeId, NodeId> hop_of(const Graph& graph, LinkId link) {
  const Link& l = graph.link(link);
  return {std::min(l.a, l.b), std::max(l.a, l.b)};
}

std::vector<std::pair<NodeId, NodeId>> route_hops(CompiledMode& mode,
                                                  const PairList& pairs) {
  std::set<std::pair<NodeId, NodeId>> hops;
  for (const auto& [src, dst] : pairs) {
    for (const Path& path : mode.paths().server_paths(src, dst)) {
      for (std::size_t h = 1; h + 2 < path.size(); ++h) {
        hops.emplace(std::min(path[h], path[h + 1]),
                     std::max(path[h], path[h + 1]));
      }
    }
  }
  return {hops.begin(), hops.end()};
}

LinkId link_of(const Graph& graph, const std::pair<NodeId, NodeId>& hop) {
  for (std::uint32_t i = 0; i < graph.link_count(); ++i) {
    if (hop_of(graph, LinkId{i}) == hop) return LinkId{i};
  }
  throw std::logic_error("route hop has no link");
}

LinkId pick_route_link(CompiledMode& mode, const PairList& pairs, Rng& rng) {
  const auto hops = route_hops(mode, pairs);
  if (hops.empty()) throw std::runtime_error("no route-carrying fabric link");
  return link_of(mode.graph(), hops[rng.next_below(hops.size())]);
}

bool repaired_paths_avoid(
    CompiledMode& mode, const PairList& pairs,
    std::span<const NodeId> failed_switches,
    std::span<const std::pair<NodeId, NodeId>> failed_links) {
  const Graph& g = mode.graph();
  for (const auto& [src, dst] : pairs) {
    const std::vector<Path> paths = mode.paths().server_paths(src, dst);
    if (paths.empty()) return false;
    for (const Path& path : paths) {
      for (std::size_t h = 0; h < path.size(); ++h) {
        if (std::find(failed_switches.begin(), failed_switches.end(),
                      path[h]) != failed_switches.end()) {
          return false;
        }
        if (h + 1 == path.size()) continue;
        const auto hop = std::pair{std::min(path[h], path[h + 1]),
                                   std::max(path[h], path[h + 1])};
        if (!g.adjacent(path[h], path[h + 1]) ||
            std::find(failed_links.begin(), failed_links.end(), hop) !=
                failed_links.end()) {
          return false;
        }
      }
    }
  }
  return true;
}

namespace {

std::vector<std::pair<std::uint32_t, std::uint32_t>> link_multiset(
    const Graph& g) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    out.emplace_back(std::min(l.a.value(), l.b.value()),
                     std::max(l.a.value(), l.b.value()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

bool conversion_contract_holds(const Controller& controller,
                               const ExecutionReport& report,
                               double storm_end_s) {
  if (report.checkpoints.empty() || report.timeline.empty()) return false;
  const CheckpointRecord& terminal = report.checkpoints.back();
  if (report.terminal_configs != terminal.configs) return false;
  for (const TransientViolation& v : report.violations) {
    const bool storm_exposure =
        v.kind == ViolationKind::kBlackhole && v.step < report.steps.size() &&
        report.steps[v.step].start_s <= storm_end_s;
    if (!storm_exposure) return false;
  }
  if (report.finish_s <= storm_end_s) return true;  // storm still active
  const TimelinePoint& last = report.timeline.back();
  return last.routes == terminal.routes &&
         link_multiset(*last.graph) ==
             link_multiset(controller.tree().realize(terminal.configs));
}

void digest_report(Digest& digest, const ExecutionReport& report) {
  digest.add(static_cast<std::uint64_t>(report.outcome));
  digest.add(report.finish_s);
  digest.add(static_cast<std::uint64_t>(report.steps.size()));
  digest.add(static_cast<std::uint64_t>(report.retries));
  digest.add(report.rules_added);
  digest.add(report.rules_deleted);
  digest.add(static_cast<std::uint64_t>(report.pairs_replanned));
  digest.add(static_cast<std::uint64_t>(report.stages_committed));
  digest.add(report.total_blackhole_s);
  for (const ConverterConfig c : report.terminal_configs) {
    digest.add(static_cast<std::uint64_t>(c));
  }
}

void failure_drill(RoundContext& ctx, const Controller& controller,
                   const ModeAssignment& assignment, std::uint32_t k,
                   const PairList& pairs, Rng& rng) {
  CompiledMode mode = timed_compile(ctx, controller, assignment, k);
  std::pair<NodeId, NodeId> hop;
  FailureSet failure;
  {
    auto pick = ctx.tracer.span("input.pick_failure", SpanKind::kAside);
    const LinkId link = pick_route_link(mode, pairs, rng);
    hop = hop_of(mode.graph(), link);
    failure.links.push_back(link);
  }
  const RepairPlan plan = timed_repair(ctx, controller, mode, failure);
  ctx.digest.add(static_cast<std::uint64_t>(plan.pairs_invalidated));
  ctx.digest.add(plan.rules_added);
  ctx.digest.add(plan.total_s());
  auto check = ctx.tracer.span("check.repair", SpanKind::kAside);
  ctx.ops.check(repaired_paths_avoid(mode, pairs, {}, {&hop, 1}),
                "failure drill: repaired routes avoid the failed link");
}

}  // namespace perfbench
