// Per-pair flow telemetry: the counter export the closed-loop control
// plane consumes.
//
// The metrics registry (obs/metrics.h) aggregates by *name*, which is the
// right shape for fabric-wide counters but not for the per-server-pair
// FCT/bytes streams a demand estimator folds — a string per pair would
// allocate on the hot path and serialize the registry mutex. This module is
// the structured sibling: simulators export FlowRecords (one per flow:
// endpoints, acked bytes, FCT), and PairTelemetry aggregates them into
// per-directed-pair counters with the same determinism contract as the
// registry — the aggregate is a pure function of the record multiset
// (commutative adds, ordered storage), so merging shards or thread counts
// never changes what the estimator folds.
//
// Producers: collect_flow_records (sim/fluid.h) for the fluid simulator,
// PacketSim::export_flow_records for the packet simulator. Consumer:
// TrafficMatrixEstimator (control/autopilot/estimator.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace flattree::obs {

// One flow's telemetry, as both simulators report it. `src`/`dst` are
// global server indices (the NodeId values of every realized graph);
// `bytes` is what the transport actually delivered (acked bytes for the
// packet sim, the flow size for a completed fluid flow).
struct FlowRecord {
  std::uint32_t src{0};
  std::uint32_t dst{0};
  double bytes{0.0};
  double start_s{0.0};
  double fct_s{0.0};     // meaningful only when completed
  bool completed{false};
};

// Per-directed-pair aggregate counters.
struct PairCounters {
  std::uint64_t flows{0};
  std::uint64_t completed{0};
  double bytes{0.0};
  double fct_sum_s{0.0};  // over completed flows only
};

// Deterministic per-pair accumulator. Storage is ordered by (src, dst), so
// iteration order never depends on insertion order; record() and
// merge() are commutative in the value domain (sums of doubles folded in
// key order), so a fixed record multiset always yields identical values.
// Not thread-safe: shards each own one and merge sequentially, exactly like
// the exec layer's result rows.
class PairTelemetry {
 public:
  void record(const FlowRecord& record);
  void record_all(const std::vector<FlowRecord>& records);
  void merge(const PairTelemetry& other);

  [[nodiscard]] const std::map<std::pair<std::uint32_t, std::uint32_t>,
                               PairCounters>&
  pairs() const {
    return pairs_;
  }
  [[nodiscard]] std::size_t pair_count() const { return pairs_.size(); }
  [[nodiscard]] double total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_flows() const { return total_flows_; }
  void clear();

 private:
  std::map<std::pair<std::uint32_t, std::uint32_t>, PairCounters> pairs_;
  double total_bytes_{0.0};
  std::uint64_t total_flows_{0};
};

}  // namespace flattree::obs
