// ReconfigPolicy: demand-aware conversion decisions with hysteresis.
//
// The closed loop's brain. Each evaluation takes a DemandEstimate (the
// decayed traffic matrix from TrafficMatrixEstimator), builds a candidate
// set — the Advisor's per-Pod mode assignment plus the three uniform
// endpoints (all-Clos / all-Local / all-Global) — and *prices* every
// candidate instead of blindly taking the advisor's word:
//
//   predicted gain   two fluid-simulator runs over a synthetic workload
//                    reconstructed from the demand estimate (one flow
//                    bundle per active matrix entry, demand mass converted
//                    to a byte forecast over the prediction horizon):
//                    aggregate FCT on the current mode minus aggregate FCT
//                    on the candidate — seconds saved per horizon.
//   conversion cost  Controller::plan_conversion priced with the Table-3
//                    ConversionDelayModel (OCS pass + rule churn).
//
// The conversion fires only when every hysteresis gate passes:
//   * cold start: no decision until the estimate carries min_total_bytes
//     (an empty-telemetry estimator recommends nothing),
//   * min-dwell: at least min_dwell_s since the last conversion — an
//     oscillating workload cannot thrash the fabric faster than the dwell,
//   * gain threshold: predicted gain must exceed gain_cost_multiple times
//     the priced conversion delay AND min_gain_frac of the current
//     aggregate FCT — conversions that barely pay for themselves under a
//     demand estimate are noise, not signal.
//
// evaluate() is pure given its arguments (no hidden state, no clock): the
// decision log records exactly the inputs, so any decision can be replayed
// and re-verified bit-for-bit (AutopilotTest.DecisionLogReplays).
#pragma once

#include <cstdint>

#include "control/advisor.h"
#include "control/autopilot/estimator.h"
#include "control/controller.h"

namespace flattree {

struct ReconfigPolicyOptions {
  AdvisorOptions advisor{};
  double min_dwell_s{3.0};          // min time between conversions
  double min_gain_frac{0.02};       // gain / current aggregate FCT floor
  double gain_cost_multiple{1.0};   // gain must exceed multiple * cost
  double min_total_bytes{1.0};      // cold-start guard on estimate mass
  double idle_pod_bytes{1.0};       // Pods below this keep their mode
  // Demand-mass -> byte-forecast conversion: mass / demand_window_s is the
  // estimated rate; the synthetic workload carries rate * horizon_s bytes
  // per matrix entry. AutopilotLoop always overwrites demand_window_s
  // with the estimator's effective window (half_life / ln 2); the value
  // set here only matters when the policy is driven directly.
  double demand_window_s{3.0};
  double horizon_s{1.0};            // prediction horizon
  std::uint32_t flows_per_entry{2};
  // The gain gate itself. When false the policy still prices the move (the
  // decision log keeps gain/cost) but follows the advisor regardless of
  // the result — the "hysteresis off" baseline a thrash bench measures
  // against. Dwell and cold-start gates still apply.
  bool require_positive_gain{true};

  // Throws std::invalid_argument on NaN/out-of-range fields, per-field
  // diagnostics.
  void validate() const;
};

enum class PolicyAction : std::uint8_t { kHold, kConvert };
enum class HoldReason : std::uint8_t {
  kNone,       // action == kConvert
  kColdStart,  // estimate below min_total_bytes
  kSameMode,   // advisor target equals the current assignment
  kDwell,      // min_dwell_s since the last conversion not yet elapsed
  kGain,       // predicted gain below the threshold
};

[[nodiscard]] const char* to_string(PolicyAction action);
[[nodiscard]] const char* to_string(HoldReason reason);

struct PolicyDecision {
  PolicyAction action{PolicyAction::kHold};
  HoldReason hold_reason{HoldReason::kColdStart};
  ModeAssignment target;  // best-priced candidate (advisor call or a uniform
                          // endpoint; idle Pods pinned in the advisor call)
  double predicted_current_fct_s{0.0};  // aggregate FCT, current mode
  double predicted_target_fct_s{0.0};   // aggregate FCT, candidate mode
  double predicted_gain_s{0.0};
  double conversion_cost_s{0.0};    // Table-3 priced delay
  bool priced{false};               // gain/cost fields meaningful
};

class ReconfigPolicy {
 public:
  ReconfigPolicy(const Controller& controller, ReconfigPolicyOptions options);

  [[nodiscard]] const ReconfigPolicyOptions& options() const {
    return options_;
  }

  // One decision. `estimate` is validated (trust boundary — it may have
  // crossed a failover); `current` is the live compiled mode;
  // `last_conversion_s` is the completion time of the most recent
  // conversion (or -infinity for never). Pure: identical arguments always
  // produce the identical decision.
  [[nodiscard]] PolicyDecision evaluate(const DemandEstimate& estimate,
                                        const CompiledMode& current,
                                        double now_s,
                                        double last_conversion_s) const;

  // The synthetic byte forecast evaluate() prices with: one flow bundle
  // per active matrix entry, locality split per the estimate's profiles.
  // Exposed for tests and the oracle baseline.
  [[nodiscard]] Workload synthesize_workload(
      const DemandEstimate& estimate) const;

  // Aggregate (summed) FCT of `flows` on a compiled mode's routes, the
  // pricing metric.
  [[nodiscard]] double aggregate_fct(const CompiledMode& mode,
                                     const Workload& flows) const;

 private:
  const Controller* controller_;
  ReconfigPolicyOptions options_;
};

}  // namespace flattree
