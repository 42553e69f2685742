// The declarative scenario spec (the DSL the ROADMAP's "Scenario DSL +
// hostile workload battery" item calls for).
//
// A scenario is one JSON object describing topology, traffic mix, failure
// schedule, conversion schedule, SLO assertions and simulator choice —
// everything a hand-coded bench binary hard-codes. parse_scenario()
// validates the whole grammar with "<file>:<line>:<col>: ..." diagnostics
// (unknown keys, wrong types, out-of-range values, SLOs on undefined tenant
// classes, overlapping failure windows — never a silent default), and
// canonical_json() emits the canonical form: every field materialized with
// its resolved default, keys in grammar order, shortest-round-trip numbers,
// two-space indent. parse(canonical(parse(text))) == parse(text) for
// every valid spec (tests/test_scenario_roundtrip.cc), which is what keeps
// golden summaries stable as the grammar grows.
//
// The grammar itself is documented in DESIGN.md ("Scenario DSL"); the
// execution semantics live in scenario/runner.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/flat_tree.h"
#include "obs/json.h"

namespace flattree::scenario {

// The scenario subsystem reads its files through the shared positioned
// reader, and its own grammar and compile rejections throw the reader's
// error type: parse errors and grammar violations are one diagnostic
// currency, "<file>:<line>:<col>: <what>".
using JsonNode = obs::json::Node;
using ScenarioError = obs::json::Error;

enum class TopologyKind : std::uint8_t {
  kFatTree,      // canonical k-ary fat-tree (flat-tree wiring, Clos mode)
  kFlatTree,     // convertible flat-tree; per-Pod or uniform mode
  kRandomGraph,  // Jellyfish-style random graph on the same device budget
  kTwoStage,     // two-stage random graph on the same device budget
};

struct TopologySpec {
  TopologyKind kind{TopologyKind::kFatTree};
  std::uint32_t k{4};                  // device budget: fat-tree arity
  std::uint32_t servers_per_edge{0};   // 0 = fat-tree default (k/2)
  static constexpr std::uint32_t kAuto = 0xffffffffu;
  std::uint32_t m{kAuto};              // 6-port converters per column
  std::uint32_t n{kAuto};              // 4-port converters per column
  std::vector<PodMode> pod_modes;      // size 1 = uniform; size k = per-Pod
  std::uint64_t wiring_seed{1};        // random_graph / two_stage only

  bool operator==(const TopologySpec&) const = default;
};

enum class TrafficPattern : std::uint8_t {
  kPermutation,  // random derangement, fixed-size flows at one instant
  kIncast,       // synchronized heavy-tailed fan-in (traffic/hostile.h)
  kClass,        // one mixed-criticality tenant class (traffic/hostile.h)
  kThreeTier,    // front-end -> cache -> storage chains (traffic/hostile.h)
  kTrace,        // Facebook-statistics trace profile (traffic/traces.h)
  kTenantChurn,  // tenant arrival/departure churn (traffic/traces.h)
};

struct TrafficSpec {
  TrafficPattern pattern{TrafficPattern::kPermutation};
  std::string tenant_class{"default"};
  std::uint64_t seed{0};  // resolved at parse: defaults to the scenario seed
  double start_s{0.0};
  // permutation
  double bytes{1e6};
  // incast
  std::uint32_t groups{8};
  std::uint32_t fanin{16};
  std::uint32_t requests{4};
  double period_s{0.25};
  bool pod_local{false};
  // incast / class (size model)
  double mean_bytes{1e6};
  double alpha{1.3};
  double max_bytes{1e9};
  // class
  double duration_s{1.0};
  double flows_per_s{500.0};
  double intra_rack_frac{0.0};
  double intra_pod_frac{0.0};
  std::int32_t hot_pod{-1};
  double hot_pod_frac{0.0};
  // three_tier
  double requests_per_s{200.0};
  double frontend_frac{0.25};
  double cache_frac{0.25};
  double request_bytes{2e4};
  double cache_reply_bytes{2e5};
  double storage_reply_bytes{2e6};
  double miss_frac{0.3};
  double think_s{0.001};
  // trace
  std::string profile;
  // tenant_churn
  double arrivals_per_s{0.5};
  double mean_lifetime_s{4.0};

  bool operator==(const TrafficSpec&) const = default;
};

enum class FailureKind : std::uint8_t {
  kCoreColumn,  // `count` consecutive core switches starting at `first`
  kLinks,       // uniform sample of `fraction` of the fabric links
  kSwitches,    // uniform sample of `fraction` of the switches of `role`
  // Control-plane chaos (require a conversion block; they degrade the
  // controllers, not the data plane, and compile into ConversionFaults
  // rather than the FailureSchedule).
  kControllerCrash,    // primary controller dies at fail_at
  kControlPartition,   // Pods [first, first+count) islanded from the root
};

struct FailureSpec {
  FailureKind kind{FailureKind::kLinks};
  double fail_at{0.0};
  double recover_at{-1.0};  // < 0 = down for the rest of the run
  std::uint32_t first{0};   // core_column
  std::uint32_t count{1};   // core_column
  double fraction{0.0};     // links / switches
  std::string role{"core"};  // switches
  std::uint32_t flaps{1};   // repeat the window this many times
  double period_s{0.0};     // flap period (required when flaps > 1)
  std::uint64_t seed{0};    // resolved at parse: defaults to scenario seed

  bool operator==(const FailureSpec&) const = default;
};

struct ConversionSpec {
  bool present{false};
  double at_s{0.0};
  std::vector<PodMode> to;  // size 1 = uniform; size k = per-Pod
  bool staged{true};
  bool stage_checkpoints{false};
  std::uint32_t ocs_partitions{4};
  double drop_probability{0.0};
  // Remaining lossy-channel knobs (ControlChannelOptions). Parsed for type
  // only; range checking is ControlChannelOptions::validate(), called once
  // at scenario compile so the rejection text has a single home.
  double channel_delay_s{0.0005};
  double channel_timeout_s{0.05};
  double channel_backoff{2.0};
  double channel_jitter{0.1};
  std::uint32_t channel_max_attempts{5};
  std::uint64_t seed{0};  // resolved at parse: defaults to scenario seed
  // Embedded ConversionDelayModel; validated by the model itself at compile
  // time (ConversionDelayModel::validate), not re-checked at parse time.
  std::uint32_t controllers{1};
  double ocs_s{0.160};
  double rule_delete_s{0.00131};
  double rule_add_s{0.00133};

  bool operator==(const ConversionSpec&) const = default;
};

enum class SloMetric : std::uint8_t {
  kWorstFct,       // worst_fct_s
  kP99Fct,         // p99_fct_s
  kP50Fct,         // p50_fct_s
  kMeanFct,        // mean_fct_s
  kCompletedFrac,  // completed_frac
};

struct SloSpec {
  std::string tenant_class;  // "" = every flow of the scenario
  SloMetric metric{SloMetric::kP99Fct};
  bool has_max{false};
  bool has_min{false};
  double max_value{0.0};
  double min_value{0.0};

  bool operator==(const SloSpec&) const = default;
};

enum class Engine : std::uint8_t {
  kFluid,          // flow-level fluid simulator (failures + conversions)
  kPacket,         // monolithic packet simulator (plain runs)
  kPacketSharded,  // per-Pod sharded packet simulator (Pod-local traffic)
  kAutopilot,      // closed-loop autopilot over the fluid simulator
};

enum class RefreshMode : std::uint8_t {
  kRepair,   // run_fluid_with_repair: Controller::plan_repair + union graph
  kReroute,  // fresh PathCache on the degraded graph at every refresh
  kNone,     // capacity changes only, no rerouting
};

struct SimSpec {
  Engine engine{Engine::kFluid};
  double max_time_s{1e6};    // fluid horizon / packet horizon / loop length
  std::uint32_t k_paths{8};  // subflow paths per pair
  RefreshMode refresh{RefreshMode::kRepair};  // default kReroute off-flat
  double repair_lag_s{-1.0};  // < 0 = auto (plan.total_s() / 0.1)
  std::uint32_t controllers{1};  // repair pricing divisor
  bool count_rules{false};
  double epoch_s{1.0};  // autopilot decision cadence

  bool operator==(const SimSpec&) const = default;
};

struct Scenario {
  std::string name;
  std::uint64_t seed{1};
  bool expect_pass{true};  // "expect": does the battery expect SLOs to hold?
  TopologySpec topology;
  std::vector<TrafficSpec> traffic;
  std::vector<FailureSpec> failures;
  ConversionSpec conversion;
  std::vector<SloSpec> slos;
  SimSpec sim;

  bool operator==(const Scenario&) const = default;
};

// Full grammar validation over a JSON text. Throws ScenarioError with a
// "<file>:<line>:<col>: ..." diagnostic on the first violation.
[[nodiscard]] Scenario parse_scenario(std::string_view text,
                                      std::string_view file = "<scenario>");

// parse_scenario over a file's contents. Throws ScenarioError (with the
// path in the message) when the file cannot be read.
[[nodiscard]] Scenario parse_scenario_file(const std::string& path);

// The canonical serialization (see the header comment). Parsing it back
// yields a Scenario that compares equal to the input.
[[nodiscard]] std::string canonical_json(const Scenario& scenario);

// Name <-> enum helpers shared with the runner/bench layers.
[[nodiscard]] const char* to_string(TopologyKind kind);
[[nodiscard]] const char* to_string(TrafficPattern pattern);
[[nodiscard]] const char* to_string(FailureKind kind);
[[nodiscard]] const char* to_string(SloMetric metric);
[[nodiscard]] const char* to_string(Engine engine);
[[nodiscard]] const char* to_string(RefreshMode mode);

}  // namespace flattree::scenario
