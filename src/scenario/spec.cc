#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <type_traits>
#include <variant>
#include <vector>

#include "exec/results.h"

namespace flattree::scenario {
namespace {

// ---- diagnostics ------------------------------------------------------------

struct Ctx {
  std::string_view file;

  [[noreturn]] void fail(const JsonNode& node, const std::string& what) const {
    throw ScenarioError(std::string{file} + ":" + std::to_string(node.line) +
                        ":" + std::to_string(node.column) + ": " + what);
  }
};

std::string quoted(std::string_view s) {
  return "\"" + std::string{s} + "\"";
}

// "\"a\", \"b\" or \"c\"" for enum diagnostics.
std::string expected_list(std::span<const std::string_view> names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += (i + 1 == names.size()) ? " or " : ", ";
    out += quoted(names[i]);
  }
  return out;
}

// ---- names ------------------------------------------------------------------
// One table per enum (index = enumerator value) drives its parser, its
// to_string and its "(expected ...)" list; the string-valued keys with a
// closed vocabulary (verdict, trace profile, switch role) use the same form.

struct Names {
  std::string_view noun;  // "unknown <noun> ..." in diagnostics
  std::span<const std::string_view> names;
};

constexpr std::string_view kTopologyKinds[] = {"fat_tree", "flat_tree",
                                               "random_graph", "two_stage"};
constexpr std::string_view kTrafficPatterns[] = {
    "permutation", "incast", "class", "three_tier", "trace", "tenant_churn"};
constexpr std::string_view kFailureKinds[] = {
    "core_column", "links", "switches", "controller_crash",
    "control_partition"};
constexpr std::string_view kSloMetrics[] = {
    "worst_fct_s", "p99_fct_s", "p50_fct_s", "mean_fct_s", "completed_frac"};
constexpr std::string_view kEngines[] = {"fluid", "packet", "packet_sharded",
                                         "autopilot"};
constexpr std::string_view kRefreshModes[] = {"repair", "reroute", "none"};
constexpr std::string_view kVerdicts[] = {"pass", "fail"};  // pass = true
constexpr std::string_view kProfiles[] = {"hadoop1", "hadoop2", "web",
                                          "cache"};
constexpr std::string_view kRoles[] = {"edge", "agg", "core"};

constexpr Names names_of(TopologyKind) {
  return {"topology kind", kTopologyKinds};
}
constexpr Names names_of(TrafficPattern) {
  return {"traffic pattern", kTrafficPatterns};
}
constexpr Names names_of(FailureKind) {
  return {"failure kind", kFailureKinds};
}
constexpr Names names_of(SloMetric) { return {"SLO metric", kSloMetrics}; }
constexpr Names names_of(Engine) { return {"engine", kEngines}; }
constexpr Names names_of(RefreshMode) {
  return {"refresh mode", kRefreshModes};
}
Names names_of(PodMode) {
  static const std::string_view kModes[] = {to_string(PodMode::kClos),
                                            to_string(PodMode::kLocal),
                                            to_string(PodMode::kGlobal)};
  return {"Pod mode", kModes};
}

template <typename E>
const char* name_of(E value) {
  return names_of(value).names[static_cast<std::size_t>(value)].data();
}

// The bit of one enumerator in a key's variant mask.
template <typename E>
constexpr std::uint32_t bit(E value) {
  return 1u << static_cast<unsigned>(value);
}

// ---- typed accessors --------------------------------------------------------

const JsonNode& require_key(const Ctx& ctx, const JsonNode& obj,
                            std::string_view key) {
  const JsonNode* node = obj.find(key);
  if (node == nullptr) {
    ctx.fail(obj, "missing required key " + quoted(key));
  }
  return *node;
}

void expect_kind(const Ctx& ctx, const JsonNode& node, JsonNode::Kind kind,
                 std::string_view key, const char* kind_name) {
  if (node.kind != kind) {
    ctx.fail(node, "key " + quoted(key) + ": expected " + kind_name +
                       ", got " + node.kind_name());
  }
}

std::string get_string(const Ctx& ctx, const JsonNode& node,
                       std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kString, key, "string");
  return node.string;
}

double get_number(const Ctx& ctx, const JsonNode& node, std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kNumber, key, "number");
  return node.number;
}

std::uint64_t get_u64(const Ctx& ctx, const JsonNode& node,
                      std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v >= 0) || v != std::floor(v)) {
    ctx.fail(node, "key " + quoted(key) + ": expected a non-negative integer");
  }
  if (v > 9007199254740992.0) {  // 2^53: exact in a double
    ctx.fail(node, "key " + quoted(key) + ": value exceeds 2^53");
  }
  return static_cast<std::uint64_t>(v);
}

// An integer in [lo, hi]; unsigned values must also pass get_u64.
template <typename Int>
Int get_int(const Ctx& ctx, const JsonNode& node, std::string_view key,
            std::int64_t lo, std::int64_t hi) {
  double v = 0;
  if constexpr (std::is_unsigned_v<Int>) {
    v = static_cast<double>(get_u64(ctx, node, key));
  } else {
    v = get_number(ctx, node, key);
    if (v != std::floor(v) || !std::isfinite(v)) {
      ctx.fail(node, "key " + quoted(key) + ": expected an integer");
    }
  }
  if (v < static_cast<double>(lo) || v > static_cast<double>(hi)) {
    ctx.fail(node, "key " + quoted(key) + ": value " +
                       std::to_string(static_cast<std::int64_t>(v)) +
                       " out of range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
  }
  return static_cast<Int>(v);
}

// Index of the node's string among `n.names`. `keyed` prefixes the
// diagnostic with the key (a Pod mode list item has no key of its own).
std::size_t get_name(const Ctx& ctx, const JsonNode& node,
                     std::string_view key, const Names& n,
                     bool keyed = true) {
  const std::string s = get_string(ctx, node, key);
  const auto it = std::find(n.names.begin(), n.names.end(), s);
  if (it != n.names.end()) {
    return static_cast<std::size_t>(it - n.names.begin());
  }
  ctx.fail(node, (keyed ? "key " + quoted(key) + ": " : std::string{}) +
                     "unknown " + std::string{n.noun} + " " + quoted(s) +
                     " (expected " + expected_list(n.names) + ")");
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

// ---- key tables -------------------------------------------------------------
// Each section is one ordered table of keys. A row names the key, its spec
// member and its value rule, and the variants (bits of the section's
// discriminator, the first row) that take it. The reader walks the table
// for the key check and the values; the writer walks it in the same order
// for the canonical form, so table order is canonical order. Adding a key
// is adding a row.

// The value rule beyond the member's C++ type. Integer members take the
// row's [lo, hi] range instead; u64 members are any integer up to 2^53.
enum class Rule : std::uint8_t {
  kAny,
  kPositive,     // > 0, finite
  kNonNegative,  // >= 0, finite
  kFraction,     // in [0, 1]
  kIdentifier,   // string matching [a-z0-9_]+
};

// A spec member of any key type; monostate marks a key whose value is a
// section of its own (read and written by hand).
template <typename S>
using Member =
    std::variant<std::monostate, bool S::*, std::uint32_t S::*,
                 std::int32_t S::*, std::uint64_t S::*, double S::*,
                 std::string S::*, std::vector<PodMode> S::*,
                 TopologyKind S::*, TrafficPattern S::*, FailureKind S::*,
                 SloMetric S::*, Engine S::*, RefreshMode S::*>;

template <typename S>
struct Key {
  std::string_view name{};
  Member<S> member{};
  Rule rule{Rule::kAny};
  std::int64_t lo{0};  // integer range
  std::int64_t hi{0};
  Names names{};  // closed vocabulary of a string or bool member (a bool
                  // is true for its first name)
  std::uint32_t variants{~0u};
  bool required{false};
  // The canonical form leaves the key out when this returns false.
  bool (*written)(const S&){nullptr};
};

constexpr std::int64_t kBig = 1 << 20;

constexpr Key<Scenario> kScenarioKeys[] = {
    {.name = "name", .member = &Scenario::name, .rule = Rule::kIdentifier,
     .required = true},
    {.name = "seed", .member = &Scenario::seed},
    {.name = "expect", .member = &Scenario::expect_pass,
     .names = {"verdict", kVerdicts}},
    {.name = "topology"},
    {.name = "traffic"},
    {.name = "failures"},
    {.name = "conversion"},
    {.name = "slos"},
    {.name = "sim"},
};

constexpr std::uint32_t kFlatKinds =
    bit(TopologyKind::kFatTree) | bit(TopologyKind::kFlatTree);
constexpr Key<TopologySpec> kTopologyKeys[] = {
    {.name = "kind", .member = &TopologySpec::kind, .required = true},
    {.name = "k", .member = &TopologySpec::k, .lo = 4, .hi = 32},
    {.name = "servers_per_edge", .member = &TopologySpec::servers_per_edge,
     .lo = 1, .hi = 256},
    {.name = "m", .member = &TopologySpec::m, .lo = 0, .hi = 256,
     .variants = kFlatKinds,
     .written = [](const TopologySpec& t) { return t.m != t.kAuto; }},
    {.name = "n", .member = &TopologySpec::n, .lo = 0, .hi = 256,
     .variants = kFlatKinds,
     .written = [](const TopologySpec& t) { return t.n != t.kAuto; }},
    {.name = "pod_modes", .member = &TopologySpec::pod_modes,
     .variants = bit(TopologyKind::kFlatTree)},
    {.name = "wiring_seed", .member = &TopologySpec::wiring_seed,
     .variants =
         bit(TopologyKind::kRandomGraph) | bit(TopologyKind::kTwoStage)},
};

constexpr std::uint32_t kIncast = bit(TrafficPattern::kIncast);
constexpr std::uint32_t kClass = bit(TrafficPattern::kClass);
constexpr std::uint32_t kThreeTier = bit(TrafficPattern::kThreeTier);
constexpr std::uint32_t kTrace = bit(TrafficPattern::kTrace);
constexpr std::uint32_t kChurn = bit(TrafficPattern::kTenantChurn);
constexpr Key<TrafficSpec> kTrafficKeys[] = {
    {.name = "pattern", .member = &TrafficSpec::pattern, .required = true},
    {.name = "class", .member = &TrafficSpec::tenant_class,
     .rule = Rule::kIdentifier},
    {.name = "seed", .member = &TrafficSpec::seed},
    {.name = "start_s", .member = &TrafficSpec::start_s,
     .rule = Rule::kNonNegative},
    {.name = "bytes", .member = &TrafficSpec::bytes, .rule = Rule::kPositive,
     .variants = bit(TrafficPattern::kPermutation)},
    {.name = "profile", .member = &TrafficSpec::profile,
     .names = {"trace profile", kProfiles}, .variants = kTrace,
     .required = true},
    {.name = "groups", .member = &TrafficSpec::groups, .lo = 1, .hi = 4096,
     .variants = kIncast},
    {.name = "fanin", .member = &TrafficSpec::fanin, .lo = 1, .hi = 4096,
     .variants = kIncast},
    {.name = "requests", .member = &TrafficSpec::requests, .lo = 1,
     .hi = 4096, .variants = kIncast},
    {.name = "period_s", .member = &TrafficSpec::period_s,
     .rule = Rule::kPositive, .variants = kIncast},
    {.name = "pod_local", .member = &TrafficSpec::pod_local,
     .variants = kIncast},
    {.name = "duration_s", .member = &TrafficSpec::duration_s,
     .rule = Rule::kPositive,
     .variants = kClass | kThreeTier | kTrace | kChurn},
    {.name = "requests_per_s", .member = &TrafficSpec::requests_per_s,
     .rule = Rule::kPositive, .variants = kThreeTier},
    {.name = "frontend_frac", .member = &TrafficSpec::frontend_frac,
     .rule = Rule::kFraction, .variants = kThreeTier},
    {.name = "cache_frac", .member = &TrafficSpec::cache_frac,
     .rule = Rule::kFraction, .variants = kThreeTier},
    {.name = "request_bytes", .member = &TrafficSpec::request_bytes,
     .rule = Rule::kPositive, .variants = kThreeTier},
    {.name = "cache_reply_bytes", .member = &TrafficSpec::cache_reply_bytes,
     .rule = Rule::kPositive, .variants = kThreeTier},
    {.name = "storage_reply_bytes",
     .member = &TrafficSpec::storage_reply_bytes, .rule = Rule::kPositive,
     .variants = kThreeTier},
    {.name = "miss_frac", .member = &TrafficSpec::miss_frac,
     .rule = Rule::kFraction, .variants = kThreeTier},
    {.name = "think_s", .member = &TrafficSpec::think_s,
     .rule = Rule::kNonNegative, .variants = kThreeTier},
    {.name = "arrivals_per_s", .member = &TrafficSpec::arrivals_per_s,
     .rule = Rule::kPositive, .variants = kChurn},
    {.name = "mean_lifetime_s", .member = &TrafficSpec::mean_lifetime_s,
     .rule = Rule::kPositive, .variants = kChurn},
    {.name = "flows_per_s", .member = &TrafficSpec::flows_per_s,
     .rule = Rule::kPositive, .variants = kClass | kTrace | kChurn},
    {.name = "mean_bytes", .member = &TrafficSpec::mean_bytes,
     .rule = Rule::kPositive, .variants = kIncast | kClass},
    {.name = "alpha", .member = &TrafficSpec::alpha,
     .variants = kIncast | kClass},
    {.name = "max_bytes", .member = &TrafficSpec::max_bytes,
     .rule = Rule::kPositive, .variants = kIncast | kClass},
    {.name = "intra_rack_frac", .member = &TrafficSpec::intra_rack_frac,
     .rule = Rule::kFraction, .variants = kClass},
    {.name = "intra_pod_frac", .member = &TrafficSpec::intra_pod_frac,
     .rule = Rule::kFraction, .variants = kClass},
    {.name = "hot_pod", .member = &TrafficSpec::hot_pod, .lo = -1,
     .hi = kBig, .variants = kClass},
    {.name = "hot_pod_frac", .member = &TrafficSpec::hot_pod_frac,
     .rule = Rule::kFraction, .variants = kClass},
};

// A controller crash has no recovery window or flapping: the standby
// takes over, the dead primary never comes back.
constexpr std::uint32_t kWindowed = ~bit(FailureKind::kControllerCrash);
constexpr std::uint32_t kRanged =
    bit(FailureKind::kCoreColumn) | bit(FailureKind::kControlPartition);
constexpr std::uint32_t kSampled =
    bit(FailureKind::kLinks) | bit(FailureKind::kSwitches);
constexpr Key<FailureSpec> kFailureKeys[] = {
    {.name = "kind", .member = &FailureSpec::kind, .required = true},
    {.name = "fail_at", .member = &FailureSpec::fail_at,
     .rule = Rule::kNonNegative, .required = true},
    {.name = "recover_at", .member = &FailureSpec::recover_at,
     .variants = kWindowed,
     .written = [](const FailureSpec& f) { return f.recover_at >= 0; }},
    {.name = "first", .member = &FailureSpec::first, .lo = 0, .hi = kBig,
     .variants = kRanged},
    {.name = "count", .member = &FailureSpec::count, .lo = 1, .hi = kBig,
     .variants = kRanged, .required = true},
    {.name = "fraction", .member = &FailureSpec::fraction,
     .variants = kSampled, .required = true},
    {.name = "role", .member = &FailureSpec::role,
     .names = {"switch role", kRoles},
     .variants = bit(FailureKind::kSwitches)},
    {.name = "flaps", .member = &FailureSpec::flaps, .lo = 1, .hi = 1024,
     .variants = kWindowed},
    {.name = "period_s", .member = &FailureSpec::period_s,
     .rule = Rule::kPositive, .variants = kWindowed,
     .written = [](const FailureSpec& f) { return f.flaps > 1; }},
    {.name = "seed", .member = &FailureSpec::seed, .variants = kSampled},
};

// The lossy-channel knobs and the per-operation delays are read for type
// only: ControlChannelOptions::validate() and
// ConversionDelayModel::validate() are the single authorities on their
// ranges, and compile_scenario calls both before any cell runs, so every
// rejection message has exactly one home.
constexpr Key<ConversionSpec> kConversionKeys[] = {
    {.name = "at_s", .member = &ConversionSpec::at_s,
     .rule = Rule::kNonNegative},
    {.name = "to", .member = &ConversionSpec::to, .required = true},
    {.name = "staged", .member = &ConversionSpec::staged},
    {.name = "stage_checkpoints", .member = &ConversionSpec::stage_checkpoints},
    {.name = "ocs_partitions", .member = &ConversionSpec::ocs_partitions,
     .lo = 1, .hi = 64},
    {.name = "drop_probability", .member = &ConversionSpec::drop_probability},
    {.name = "channel_delay_s", .member = &ConversionSpec::channel_delay_s},
    {.name = "channel_timeout_s", .member = &ConversionSpec::channel_timeout_s},
    {.name = "channel_backoff", .member = &ConversionSpec::channel_backoff},
    {.name = "channel_jitter", .member = &ConversionSpec::channel_jitter},
    {.name = "channel_max_attempts",
     .member = &ConversionSpec::channel_max_attempts, .lo = 0, .hi = kBig},
    {.name = "seed", .member = &ConversionSpec::seed},
    {.name = "controllers", .member = &ConversionSpec::controllers, .lo = 1,
     .hi = 4096},
    {.name = "ocs_s", .member = &ConversionSpec::ocs_s},
    {.name = "rule_delete_s", .member = &ConversionSpec::rule_delete_s},
    {.name = "rule_add_s", .member = &ConversionSpec::rule_add_s},
};

constexpr Key<SloSpec> kSloKeys[] = {
    {.name = "class", .member = &SloSpec::tenant_class},
    {.name = "metric", .member = &SloSpec::metric, .required = true},
    {.name = "max", .member = &SloSpec::max_value,
     .written = [](const SloSpec& s) { return s.has_max; }},
    {.name = "min", .member = &SloSpec::min_value,
     .written = [](const SloSpec& s) { return s.has_min; }},
};

constexpr std::uint32_t kFluid = bit(Engine::kFluid);
constexpr Key<SimSpec> kSimKeys[] = {
    {.name = "engine", .member = &SimSpec::engine, .required = true},
    {.name = "max_time_s", .member = &SimSpec::max_time_s,
     .rule = Rule::kPositive},
    {.name = "k_paths", .member = &SimSpec::k_paths, .lo = 1, .hi = 64},
    {.name = "refresh", .member = &SimSpec::refresh, .variants = kFluid},
    {.name = "repair_lag_s", .member = &SimSpec::repair_lag_s,
     .rule = Rule::kNonNegative, .variants = kFluid,
     .written = [](const SimSpec& s) { return s.repair_lag_s >= 0; }},
    {.name = "controllers", .member = &SimSpec::controllers, .lo = 1,
     .hi = 4096, .variants = kFluid},
    {.name = "count_rules", .member = &SimSpec::count_rules,
     .variants = kFluid},
    {.name = "epoch_s", .member = &SimSpec::epoch_s, .rule = Rule::kPositive,
     .variants = bit(Engine::kAutopilot)},
};

// ---- table reader -----------------------------------------------------------

// A section's key table; S is deduced from the spec argument.
template <typename S>
using Keys = std::type_identity_t<std::span<const Key<S>>>;

// Words the rejection of a key the section's variant does not take, given
// the mask of variants that do (0 for a key no row declares).
using Foreign = std::function<std::string(std::uint32_t owners)>;

Foreign not_valid_for(std::string_view noun, std::string_view variant) {
  return [what = "is not valid for " + std::string{noun} + " " +
                 quoted(variant)](std::uint32_t) { return what; };
}

std::vector<PodMode> get_mode_list(const Ctx& ctx, const JsonNode& node,
                                   std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kArray, key, "array");
  std::vector<PodMode> modes;
  for (const JsonNode& item : node.items) {
    modes.push_back(static_cast<PodMode>(
        get_name(ctx, item, "pod mode", names_of(PodMode{}), false)));
  }
  return modes;
}

void check_mode_count(const Ctx& ctx, const JsonNode& obj,
                      std::string_view key, std::size_t count,
                      std::uint32_t pods) {
  const JsonNode* node = obj.find(key);
  if (node != nullptr && count != 1 && count != pods) {
    ctx.fail(*node, "key " + quoted(key) + ": expected 1 or " +
                        std::to_string(pods) + " entries, got " +
                        std::to_string(count));
  }
}

template <typename S>
void read_value(const Ctx& ctx, const JsonNode& node, const Key<S>& key,
                S& spec) {
  std::visit(
      [&](auto member) {
        if constexpr (!std::is_same_v<decltype(member), std::monostate>) {
          auto& field = spec.*member;
          using T = std::remove_reference_t<decltype(field)>;
          const std::string_view name = key.name;
          if constexpr (std::is_same_v<T, bool>) {
            if (!key.names.names.empty()) {
              field = get_name(ctx, node, name, key.names) == 0;
            } else {
              expect_kind(ctx, node, JsonNode::Kind::kBool, name, "bool");
              field = node.bool_value;
            }
          } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            field = get_u64(ctx, node, name);
          } else if constexpr (std::is_integral_v<T>) {
            field = get_int<T>(ctx, node, name, key.lo, key.hi);
          } else if constexpr (std::is_same_v<T, double>) {
            field = get_number(ctx, node, name);
            const bool finite = std::isfinite(field);
            if (key.rule == Rule::kPositive && !(field > 0 && finite)) {
              ctx.fail(node, "key " + quoted(name) + ": must be > 0");
            }
            if (key.rule == Rule::kNonNegative && !(field >= 0 && finite)) {
              ctx.fail(node, "key " + quoted(name) + ": must be >= 0");
            }
            if (key.rule == Rule::kFraction && !(field >= 0 && field <= 1)) {
              ctx.fail(node, "key " + quoted(name) + ": must lie in [0, 1]");
            }
          } else if constexpr (std::is_same_v<T, std::string>) {
            field = get_string(ctx, node, name);
            if (!key.names.names.empty()) {
              (void)get_name(ctx, node, name, key.names);
            }
            if (key.rule == Rule::kIdentifier && !is_identifier(field)) {
              ctx.fail(node, "key " + quoted(name) + ": must match [a-z0-9_]+");
            }
          } else if constexpr (std::is_same_v<T, std::vector<PodMode>>) {
            field = get_mode_list(ctx, node, name);
          } else {
            field = static_cast<T>(get_name(ctx, node, name, names_of(T{})));
          }
        }
      },
      key.member);
}

// Reads a section's discriminator, its first row, which picks the
// variant the rest of the section is checked and read against.
template <typename S>
void read_discriminator(const Ctx& ctx, const JsonNode& obj, Keys<S> keys,
                        S& spec) {
  read_value(ctx, require_key(ctx, obj, keys[0].name), keys[0], spec);
}

// Rejects the first member of `obj` that no row declares for `variant`
// ("unknown key ... in <section>" when no row declares it and `section`
// is non-empty, "key ... <foreign(owners)>" otherwise), then reads every
// row `variant` takes in table order: a present key through its rule, an
// absent required key as a diagnostic, an absent optional key as the
// member's current (default) value.
template <typename S>
void read_keys(const Ctx& ctx, const JsonNode& obj, Keys<S> keys,
               std::uint32_t variant, S& spec, std::string_view section,
               const Foreign& foreign = {}) {
  for (const auto& [name, value] : obj.members) {
    const auto key =
        std::find_if(keys.begin(), keys.end(),
                     [&](const Key<S>& k) { return k.name == name; });
    const bool declared = key != keys.end();
    if (declared && (key->variants & variant) != 0) continue;
    if (!declared && !section.empty()) {
      ctx.fail(value, "unknown key " + quoted(name) + " in " +
                          std::string{section});
    }
    ctx.fail(value, "key " + quoted(name) + " " +
                        foreign(declared ? key->variants : 0u));
  }
  for (const Key<S>& key : keys) {
    if ((key.variants & variant) == 0) continue;
    if (const JsonNode* node = obj.find(key.name)) {
      read_value(ctx, *node, key, spec);
    } else if (key.required) {
      (void)require_key(ctx, obj, key.name);
    }
  }
}

// ---- sections ---------------------------------------------------------------

TopologySpec parse_topology(const Ctx& ctx, const JsonNode& obj) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "topology", "object");
  TopologySpec spec;
  read_discriminator(ctx, obj, kTopologyKeys, spec);
  if (spec.kind == TopologyKind::kFlatTree) spec.pod_modes = {PodMode::kClos};
  read_keys(ctx, obj, kTopologyKeys, bit(spec.kind), spec, "topology",
            [](std::uint32_t owners) {
              std::vector<std::string_view> kinds;
              for (std::size_t i = 0; i < std::size(kTopologyKinds); ++i) {
                if ((owners >> i) & 1u) kinds.push_back(kTopologyKinds[i]);
              }
              return "is only valid for kind " + expected_list(kinds);
            });
  if (spec.k % 2 != 0) ctx.fail(*obj.find("k"), "key \"k\": must be even");
  if (obj.find("servers_per_edge") == nullptr) {
    spec.servers_per_edge = spec.k / 2;
  }
  check_mode_count(ctx, obj, "pod_modes", spec.pod_modes.size(), spec.k);
  return spec;
}

TrafficSpec parse_traffic_entry(const Ctx& ctx, const JsonNode& obj,
                                std::uint64_t default_seed) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "traffic entry", "object");
  TrafficSpec spec;
  read_discriminator(ctx, obj, kTrafficKeys, spec);
  // Per-pattern defaults of the keys patterns share.
  spec.seed = default_seed;
  if (spec.pattern == TrafficPattern::kClass) spec.alpha = 1.6;
  if (spec.pattern == TrafficPattern::kTrace) spec.flows_per_s = 1000.0;
  if (spec.pattern == TrafficPattern::kTenantChurn) {
    spec.duration_s = 10.0;
    spec.flows_per_s = 800.0;
  }
  read_keys(ctx, obj, kTrafficKeys, bit(spec.pattern), spec, "traffic entry",
            not_valid_for("pattern", to_string(spec.pattern)));
  if (!(spec.alpha > 1)) {
    ctx.fail(*obj.find("alpha"), "key \"alpha\": must be > 1");
  }
  return spec;
}

FailureSpec parse_failure_entry(const Ctx& ctx, const JsonNode& obj,
                                std::uint64_t default_seed) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "failure entry", "object");
  FailureSpec spec;
  read_discriminator(ctx, obj, kFailureKeys, spec);
  const std::uint32_t variant = bit(spec.kind);
  if ((variant & kSampled) != 0) spec.seed = default_seed;
  read_keys(ctx, obj, kFailureKeys, variant, spec, "",
            not_valid_for("failure kind", to_string(spec.kind)));
  if (const JsonNode* node = obj.find("recover_at")) {
    if (!(spec.recover_at > spec.fail_at)) {
      ctx.fail(*node, "key \"recover_at\": must be greater than fail_at");
    }
  }
  if ((variant & kSampled) != 0 &&
      (!(spec.fraction > 0) || !(spec.fraction <= 1))) {
    ctx.fail(*obj.find("fraction"), "key \"fraction\": must lie in (0, 1]");
  }
  if (spec.flaps > 1) {
    if (spec.recover_at < 0) {
      ctx.fail(*obj.find("flaps"), "key \"flaps\": flapping requires recover_at");
    }
    const JsonNode& period = require_key(ctx, obj, "period_s");
    if (!(spec.period_s > spec.recover_at - spec.fail_at)) {
      ctx.fail(period,
               "key \"period_s\": flap period must exceed recover_at - "
               "fail_at");
    }
  } else if (const JsonNode* node = obj.find("period_s")) {
    ctx.fail(*node, "key \"period_s\" requires flaps > 1");
  }
  return spec;
}

// Selector identity for the parse-time overlap check: two failure entries
// that would fail the *same* elements must not have overlapping windows
// (FailureSchedule would reject the double-fail mid-compile; we catch the
// statically-detectable case here with a source position).
std::string selector_identity(const FailureSpec& spec) {
  std::ostringstream id;
  id << to_string(spec.kind);
  switch (spec.kind) {
    case FailureKind::kCoreColumn:
    case FailureKind::kControlPartition:
      id << ":" << spec.first << ":" << spec.count;
      break;
    case FailureKind::kLinks:
      id << ":" << spec.fraction << ":" << spec.seed;
      break;
    case FailureKind::kSwitches:
      id << ":" << spec.fraction << ":" << spec.role << ":" << spec.seed;
      break;
    case FailureKind::kControllerCrash:
      // Identity is the kind itself; a crash never recovers, so any second
      // crash entry overlaps the first and is rejected — at most one per
      // scenario, by construction.
      break;
  }
  return id.str();
}

bool windows_overlap(const FailureSpec& a, const FailureSpec& b) {
  for (std::uint32_t i = 0; i < a.flaps; ++i) {
    const double a0 = a.fail_at + i * a.period_s;
    const double a1 =
        a.recover_at < 0 ? 1e300 : a.recover_at + i * a.period_s;
    for (std::uint32_t j = 0; j < b.flaps; ++j) {
      const double b0 = b.fail_at + j * b.period_s;
      const double b1 =
          b.recover_at < 0 ? 1e300 : b.recover_at + j * b.period_s;
      if (a0 < b1 && b0 < a1) return true;
    }
  }
  return false;
}

ConversionSpec parse_conversion(const Ctx& ctx, const JsonNode& obj,
                                const TopologySpec& topology,
                                std::uint64_t default_seed) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "conversion", "object");
  if (topology.kind != TopologyKind::kFlatTree) {
    ctx.fail(obj, "conversion requires topology kind \"flat_tree\"");
  }
  ConversionSpec spec;
  spec.present = true;
  spec.seed = default_seed;
  read_keys(ctx, obj, kConversionKeys, ~0u, spec, "conversion");
  check_mode_count(ctx, obj, "to", spec.to.size(), topology.k);
  if (spec.stage_checkpoints && !spec.staged) {
    ctx.fail(*obj.find("stage_checkpoints"),
             "key \"stage_checkpoints\" requires staged");
  }
  if (!(spec.drop_probability >= 0) || !(spec.drop_probability < 1)) {
    ctx.fail(*obj.find("drop_probability"),
             "key \"drop_probability\": must lie in [0, 1)");
  }
  return spec;
}

SloSpec parse_slo(const Ctx& ctx, const JsonNode& obj,
                  const std::vector<TrafficSpec>& traffic) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "slo entry", "object");
  SloSpec spec;
  read_keys(ctx, obj, kSloKeys, ~0u, spec, "slo entry");
  if (!spec.tenant_class.empty() &&
      std::none_of(traffic.begin(), traffic.end(), [&](const TrafficSpec& t) {
        return t.tenant_class == spec.tenant_class;
      })) {
    ctx.fail(*obj.find("class"), "key \"class\": tenant class " +
                                     quoted(spec.tenant_class) +
                                     " is not defined by any traffic entry");
  }
  spec.has_max = obj.find("max") != nullptr;
  spec.has_min = obj.find("min") != nullptr;
  if (!spec.has_max && !spec.has_min) {
    ctx.fail(obj, "slo requires \"max\" or \"min\"");
  }
  if (spec.has_max && spec.has_min && spec.max_value < spec.min_value) {
    ctx.fail(*obj.find("max"), "key \"max\": must be >= min");
  }
  return spec;
}

SimSpec parse_sim(const Ctx& ctx, const JsonNode* obj,
                  const TopologySpec& topology) {
  const bool flat = (bit(topology.kind) & kFlatKinds) != 0;
  SimSpec spec;
  spec.refresh = flat ? RefreshMode::kRepair : RefreshMode::kReroute;
  if (obj == nullptr) return spec;
  expect_kind(ctx, *obj, JsonNode::Kind::kObject, "sim", "object");
  read_discriminator(ctx, *obj, kSimKeys, spec);
  read_keys(ctx, *obj, kSimKeys, bit(spec.engine), spec, "",
            not_valid_for("engine", to_string(spec.engine)));
  if (spec.refresh == RefreshMode::kRepair && !flat) {
    ctx.fail(*obj->find("refresh"),
             "key \"refresh\": \"repair\" requires topology kind "
             "\"fat_tree\" or \"flat_tree\"");
  }
  return spec;
}

}  // namespace

const char* to_string(TopologyKind kind) { return name_of(kind); }
const char* to_string(TrafficPattern pattern) { return name_of(pattern); }
const char* to_string(FailureKind kind) { return name_of(kind); }
const char* to_string(SloMetric metric) { return name_of(metric); }
const char* to_string(Engine engine) { return name_of(engine); }
const char* to_string(RefreshMode mode) { return name_of(mode); }

Scenario parse_scenario(std::string_view text, std::string_view file) {
  const Ctx ctx{file};
  const JsonNode root = obs::json::parse(text, file);
  if (root.kind != JsonNode::Kind::kObject) {
    ctx.fail(root, std::string{"expected a scenario object, got "} +
                       root.kind_name());
  }
  Scenario scenario;
  read_keys(ctx, root, kScenarioKeys, ~0u, scenario, "scenario");

  scenario.topology = parse_topology(ctx, require_key(ctx, root, "topology"));

  const JsonNode& traffic = require_key(ctx, root, "traffic");
  expect_kind(ctx, traffic, JsonNode::Kind::kArray, "traffic", "array");
  if (traffic.items.empty()) {
    ctx.fail(traffic, "key \"traffic\": at least one traffic entry is required");
  }
  for (std::size_t i = 0; i < traffic.items.size(); ++i) {
    scenario.traffic.push_back(
        parse_traffic_entry(ctx, traffic.items[i], scenario.seed + i));
  }

  const JsonNode* failures = root.find("failures");
  if (failures != nullptr) {
    expect_kind(ctx, *failures, JsonNode::Kind::kArray, "failures", "array");
    for (std::size_t i = 0; i < failures->items.size(); ++i) {
      scenario.failures.push_back(parse_failure_entry(
          ctx, failures->items[i], scenario.seed + 100 + i));
    }
    for (std::size_t i = 0; i < scenario.failures.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (selector_identity(scenario.failures[i]) ==
                selector_identity(scenario.failures[j]) &&
            windows_overlap(scenario.failures[i], scenario.failures[j])) {
          ctx.fail(failures->items[i],
                   "failure window overlaps an earlier window for the same "
                   "selector");
        }
      }
    }
  }

  const JsonNode* conversion = root.find("conversion");
  if (conversion != nullptr) {
    scenario.conversion =
        parse_conversion(ctx, *conversion, scenario.topology, scenario.seed);
  }

  if (const JsonNode* slos = root.find("slos")) {
    expect_kind(ctx, *slos, JsonNode::Kind::kArray, "slos", "array");
    for (const JsonNode& item : slos->items) {
      scenario.slos.push_back(parse_slo(ctx, item, scenario.traffic));
    }
  }

  scenario.sim = parse_sim(ctx, root.find("sim"), scenario.topology);

  // Cross-section engine constraints (positions point at the offending
  // section, not at "sim", so the diagnostic lands where the fix goes).
  if (scenario.sim.engine != Engine::kFluid) {
    if (failures != nullptr) {
      ctx.fail(*failures, "key \"failures\" is not supported by engine " +
                              quoted(to_string(scenario.sim.engine)));
    }
    if (conversion != nullptr) {
      ctx.fail(*conversion, "key \"conversion\" is not supported by engine " +
                                quoted(to_string(scenario.sim.engine)));
    }
  }
  for (std::size_t i = 0; i < scenario.failures.size(); ++i) {
    const FailureSpec& f = scenario.failures[i];
    const bool control = f.kind == FailureKind::kControllerCrash ||
                         f.kind == FailureKind::kControlPartition;
    if (!control) continue;
    // Control-plane chaos degrades the conversion's controllers, so it is
    // meaningless without a conversion in flight — and partitions demand
    // the staged protocol (the atomic baseline has no checkpoint to fall
    // back on, so the executor rejects the combination).
    if (!scenario.conversion.present) {
      ctx.fail(failures->items[i],
               "failure kind " + quoted(to_string(f.kind)) +
                   " requires a \"conversion\" section");
    }
    if (f.kind == FailureKind::kControlPartition) {
      if (!scenario.conversion.staged) {
        ctx.fail(failures->items[i],
                 "failure kind \"control_partition\" requires a staged "
                 "conversion");
      }
      if (f.first + f.count > scenario.topology.k) {
        ctx.fail(failures->items[i],
                 "failure kind \"control_partition\": pod range [first, "
                 "first + count) exceeds the topology's pods");
      }
    }
  }
  if (scenario.conversion.present && !scenario.failures.empty()) {
    for (std::size_t i = 0; i < scenario.failures.size(); ++i) {
      const FailureKind k = scenario.failures[i].kind;
      if (k != FailureKind::kLinks && k != FailureKind::kControllerCrash &&
          k != FailureKind::kControlPartition) {
        ctx.fail(failures->items[i],
                 "conversion scenarios support failure kinds \"links\", "
                 "\"controller_crash\" and \"control_partition\" only");
      }
    }
  }
  if (scenario.sim.engine == Engine::kAutopilot) {
    const JsonNode* slos = root.find("slos");
    for (std::size_t i = 0; i < scenario.slos.size(); ++i) {
      const SloSpec& slo = scenario.slos[i];
      if (!slo.tenant_class.empty() ||
          (slo.metric != SloMetric::kMeanFct &&
           slo.metric != SloMetric::kCompletedFrac)) {
        ctx.fail(slos->items[i],
                 "engine \"autopilot\" supports aggregate SLOs only "
                 "(class \"\", metric \"mean_fct_s\" or \"completed_frac\")");
      }
    }
  }
  if (scenario.sim.engine == Engine::kPacketSharded) {
    const JsonNode* slos = root.find("slos");
    for (std::size_t i = 0; i < scenario.slos.size(); ++i) {
      if (!scenario.slos[i].tenant_class.empty()) {
        ctx.fail(slos->items[i],
                 "engine \"packet_sharded\" supports class \"\" SLOs only");
      }
    }
  }
  return scenario;
}

Scenario parse_scenario_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw ScenarioError(path + ": cannot read file");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str(), path);
}

// ---- canonical serialization ------------------------------------------------

namespace {

// Two-space-indented writer; strings and numbers through the shared JSON
// module, scalars dispatched by exec::JsonValue exactly as BENCH reports.
class JsonWriter {
 public:
  void key(std::string_view k) {
    pre_item();
    obs::json::append_string(out_, k);
    out_ += ": ";
    just_keyed_ = true;
  }
  void value(exec::JsonValue v) {
    pre_item();
    v.append_json(out_);
  }
  void begin_object() { begin('{'); }
  void end_object() { end('}'); }
  void begin_array() { begin('['); }
  void end_array() { end(']'); }
  std::string take() {
    out_ += '\n';
    return std::move(out_);
  }

 private:
  void pre_item() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (!stack_.empty()) {
      out_ += stack_.back() ? ",\n" : "\n";
      stack_.back() = true;
      out_.append(stack_.size() * 2, ' ');
    }
  }
  void begin(char c) {
    pre_item();
    out_ += c;
    stack_.push_back(false);
  }
  void end(char c) {
    const bool any = stack_.back();
    stack_.pop_back();
    if (any) {
      out_ += '\n';
      out_.append(stack_.size() * 2, ' ');
    }
    out_ += c;
  }

  std::string out_;
  std::vector<bool> stack_;
  bool just_keyed_{false};
};

// Writes every row `variant` takes, in table order, skipping section rows
// and rows whose `written` says the value is implicit.
template <typename S>
void write_keys(JsonWriter& w, Keys<S> keys,
                std::uint32_t variant, const S& spec) {
  for (const Key<S>& key : keys) {
    if ((key.variants & variant) == 0) continue;
    if (key.written != nullptr && !key.written(spec)) continue;
    std::visit(
        [&](auto member) {
          if constexpr (!std::is_same_v<decltype(member), std::monostate>) {
            const auto& field = spec.*member;
            using T = std::remove_cvref_t<decltype(field)>;
            w.key(key.name);
            if constexpr (std::is_same_v<T, std::vector<PodMode>>) {
              w.begin_array();
              for (const PodMode mode : field) w.value(to_string(mode));
              w.end_array();
            } else if constexpr (std::is_enum_v<T>) {
              w.value(name_of(field));
            } else if constexpr (std::is_same_v<T, bool>) {
              if (key.names.names.empty()) {
                w.value(field);
              } else {
                w.value(std::string{key.names.names[field ? 0 : 1]});
              }
            } else {
              w.value(field);
            }
          }
        },
        key.member);
  }
}

template <typename S>
void write_object(JsonWriter& w, Keys<S> keys,
                  std::uint32_t variant, const S& spec) {
  w.begin_object();
  write_keys(w, keys, variant, spec);
  w.end_object();
}

template <typename S, typename Variant>
void write_array(JsonWriter& w, std::string_view key, Keys<S> keys,
                 const std::vector<S>& items, Variant variant) {
  w.key(key);
  w.begin_array();
  for (const S& item : items) write_object(w, keys, variant(item), item);
  w.end_array();
}

}  // namespace

std::string canonical_json(const Scenario& scenario) {
  JsonWriter w;
  w.begin_object();
  write_keys(w, kScenarioKeys, ~0u, scenario);
  w.key("topology");
  write_object(w, kTopologyKeys, bit(scenario.topology.kind),
               scenario.topology);
  write_array(w, "traffic", kTrafficKeys, scenario.traffic,
              [](const TrafficSpec& t) { return bit(t.pattern); });
  if (!scenario.failures.empty()) {
    write_array(w, "failures", kFailureKeys, scenario.failures,
                [](const FailureSpec& f) { return bit(f.kind); });
  }
  if (scenario.conversion.present) {
    w.key("conversion");
    write_object(w, kConversionKeys, ~0u, scenario.conversion);
  }
  if (!scenario.slos.empty()) {
    write_array(w, "slos", kSloKeys, scenario.slos,
                [](const SloSpec&) { return ~0u; });
  }
  w.key("sim");
  write_object(w, kSimKeys, bit(scenario.sim.engine), scenario.sim);
  w.end_object();
  return w.take();
}

}  // namespace flattree::scenario
