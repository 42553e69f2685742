// FNV-1a fingerprints of conversion reports, shared by the executor's and
// the control hierarchy's fingerprint-matrix tests.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "control/conversion_exec.h"
#include "net/graph.h"
#include "routing/path.h"

namespace flattree {

// Graphs as undirected node-pair multisets (link ids are renumbered by
// every realization; node pairs are the stable currency).
inline std::vector<std::pair<std::uint32_t, std::uint32_t>> link_multiset(
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

// FNV-1a over every field of an ExecutionReport. Goldens and perfbench
// digests see only summary fields; this pins the full step order, every
// timeline snapshot and every checkpoint, so a reordered step or a moved
// RNG draw cannot slip through a refactor of the executor.
class ReportHasher {
 public:
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void routes(const std::vector<std::vector<Path>>& rs) {
    u64(rs.size());
    for (const std::vector<Path>& paths : rs) {
      u64(paths.size());
      for (const Path& path : paths) {
        u64(path.size());
        for (NodeId n : path) u64(n.value());
      }
    }
  }
  void assignment(const ModeAssignment& a) {
    u64(a.pod_modes.size());
    for (PodMode m : a.pod_modes) u64(static_cast<std::uint64_t>(m));
  }
  void configs(const std::vector<ConverterConfig>& cs) {
    u64(cs.size());
    for (ConverterConfig c : cs) u64(static_cast<std::uint64_t>(c));
  }
  void graph(const Graph& g) {
    const auto links = link_multiset(g);
    u64(links.size());
    for (const auto& [a, b] : links) {
      u64(a);
      u64(b);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

inline std::uint64_t fingerprint(const ExecutionReport& r) {
  ReportHasher h;
  h.u64(static_cast<std::uint64_t>(r.outcome));
  h.u64(r.staged);
  h.f64(r.start_s);
  h.f64(r.finish_s);
  h.u64(r.retries);
  h.u64(r.messages_dropped);
  h.u64(r.steps_failed);
  h.u64(r.rules_added);
  h.u64(r.rules_deleted);
  h.u64(r.rules_skipped_dead);
  h.u64(r.pairs_patched);
  h.u64(r.replans);
  h.u64(r.pairs_replanned);
  h.u64(r.stages_total);
  h.u64(r.stages_committed);
  h.u64(r.failovers);
  h.u64(r.steps_reissued);
  h.f64(r.total_blackhole_s);
  h.f64(r.max_pair_blackhole_s);
  h.u64(r.pairs.size());
  for (const auto& [src, dst] : r.pairs) {
    h.u64(src.value());
    h.u64(dst.value());
  }
  h.u64(r.steps.size());
  for (const StepRecord& s : r.steps) {
    h.u64(static_cast<std::uint64_t>(s.kind));
    h.u64(s.rollback);
    h.u64(s.replan);
    h.u64(s.standby);
    h.u64(s.target.value());
    h.u64(s.partition);
    h.u64(s.rules_added);
    h.u64(s.rules_deleted);
    h.f64(s.start_s);
    h.f64(s.finish_s);
    h.u64(s.attempts);
    h.u64(s.ok);
  }
  h.u64(r.violations.size());
  for (const TransientViolation& v : r.violations) {
    h.u64(static_cast<std::uint64_t>(v.kind));
    h.u64(v.step);
    h.u64(v.pair);
  }
  h.u64(r.timeline.size());
  for (const TimelinePoint& pt : r.timeline) {
    h.f64(pt.t);
    h.graph(*pt.graph);
    h.u64(pt.epoch);
    h.f64(pt.blackout_s);
    h.u64(static_cast<std::uint64_t>(pt.scope));
    h.routes(pt.routes);
  }
  h.u64(r.checkpoints.size());
  for (const CheckpointRecord& c : r.checkpoints) {
    h.u64(c.stage);
    h.f64(c.t);
    h.u64(c.epoch);
    h.assignment(c.assignment);
    h.configs(c.configs);
    h.routes(c.routes);
  }
  h.assignment(r.terminal_assignment);
  h.configs(r.terminal_configs);
  return h.value();
}

}  // namespace flattree
