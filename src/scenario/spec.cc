#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <span>
#include <sstream>
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
std::string expected_list(std::initializer_list<std::string_view> names) {
  std::string out;
  std::size_t i = 0;
  for (const std::string_view name : names) {
    if (i > 0) out += (i + 1 == names.size()) ? " or " : ", ";
    out += quoted(name);
    ++i;
  }
  return out;
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

bool get_bool(const Ctx& ctx, const JsonNode& node, std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kBool, key, "bool");
  return node.bool_value;
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

std::uint32_t get_u32(const Ctx& ctx, const JsonNode& node,
                      std::string_view key, std::uint32_t lo,
                      std::uint32_t hi) {
  const std::uint64_t v = get_u64(ctx, node, key);
  if (v < lo || v > hi) {
    ctx.fail(node, "key " + quoted(key) + ": value " + std::to_string(v) +
                       " out of range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
  }
  return static_cast<std::uint32_t>(v);
}

std::int32_t get_i32(const Ctx& ctx, const JsonNode& node,
                     std::string_view key, std::int32_t lo, std::int32_t hi) {
  const double v = get_number(ctx, node, key);
  if (v != std::floor(v) || !std::isfinite(v)) {
    ctx.fail(node, "key " + quoted(key) + ": expected an integer");
  }
  if (v < lo || v > hi) {
    ctx.fail(node, "key " + quoted(key) + ": value " +
                       std::to_string(static_cast<std::int64_t>(v)) +
                       " out of range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
  }
  return static_cast<std::int32_t>(v);
}

double get_positive(const Ctx& ctx, const JsonNode& node,
                    std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v > 0) || !std::isfinite(v)) {
    ctx.fail(node, "key " + quoted(key) + ": must be > 0");
  }
  return v;
}

double get_non_negative(const Ctx& ctx, const JsonNode& node,
                        std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v >= 0) || !std::isfinite(v)) {
    ctx.fail(node, "key " + quoted(key) + ": must be >= 0");
  }
  return v;
}

double get_fraction(const Ctx& ctx, const JsonNode& node,
                    std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v >= 0) || !(v <= 1)) {
    ctx.fail(node, "key " + quoted(key) + ": must lie in [0, 1]");
  }
  return v;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

void check_keys(const Ctx& ctx, const JsonNode& obj,
                std::initializer_list<std::string_view> allowed,
                const char* section) {
  for (const auto& [key, value] : obj.members) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      ctx.fail(value, "unknown key " + quoted(key) + " in " + section);
    }
  }
}

// ---- enums ------------------------------------------------------------------

const char* mode_name(PodMode mode) {
  switch (mode) {
    case PodMode::kClos: return "clos";
    case PodMode::kLocal: return "local";
    case PodMode::kGlobal: return "global";
  }
  return "?";
}

PodMode pod_mode_from(const Ctx& ctx, const JsonNode& node) {
  expect_kind(ctx, node, JsonNode::Kind::kString, "pod mode", "string");
  if (node.string == "clos") return PodMode::kClos;
  if (node.string == "local") return PodMode::kLocal;
  if (node.string == "global") return PodMode::kGlobal;
  ctx.fail(node, "unknown Pod mode " + quoted(node.string) + " (expected " +
                     expected_list({"clos", "local", "global"}) + ")");
}

TopologyKind topology_kind_from(const Ctx& ctx, const JsonNode& node) {
  const std::string s = get_string(ctx, node, "kind");
  if (s == "fat_tree") return TopologyKind::kFatTree;
  if (s == "flat_tree") return TopologyKind::kFlatTree;
  if (s == "random_graph") return TopologyKind::kRandomGraph;
  if (s == "two_stage") return TopologyKind::kTwoStage;
  ctx.fail(node,
           "key \"kind\": unknown topology kind " + quoted(s) + " (expected " +
               expected_list(
                   {"fat_tree", "flat_tree", "random_graph", "two_stage"}) +
               ")");
}

TrafficPattern traffic_pattern_from(const Ctx& ctx, const JsonNode& node) {
  const std::string s = get_string(ctx, node, "pattern");
  if (s == "permutation") return TrafficPattern::kPermutation;
  if (s == "incast") return TrafficPattern::kIncast;
  if (s == "class") return TrafficPattern::kClass;
  if (s == "three_tier") return TrafficPattern::kThreeTier;
  if (s == "trace") return TrafficPattern::kTrace;
  if (s == "tenant_churn") return TrafficPattern::kTenantChurn;
  ctx.fail(node, "key \"pattern\": unknown traffic pattern " + quoted(s) +
                     " (expected " +
                     expected_list({"permutation", "incast", "class",
                                    "three_tier", "trace", "tenant_churn"}) +
                     ")");
}

FailureKind failure_kind_from(const Ctx& ctx, const JsonNode& node) {
  const std::string s = get_string(ctx, node, "kind");
  if (s == "core_column") return FailureKind::kCoreColumn;
  if (s == "links") return FailureKind::kLinks;
  if (s == "switches") return FailureKind::kSwitches;
  if (s == "controller_crash") return FailureKind::kControllerCrash;
  if (s == "control_partition") return FailureKind::kControlPartition;
  ctx.fail(node,
           "key \"kind\": unknown failure kind " + quoted(s) + " (expected " +
               expected_list({"core_column", "links", "switches",
                              "controller_crash", "control_partition"}) +
               ")");
}

SloMetric slo_metric_from(const Ctx& ctx, const JsonNode& node) {
  const std::string s = get_string(ctx, node, "metric");
  if (s == "worst_fct_s") return SloMetric::kWorstFct;
  if (s == "p99_fct_s") return SloMetric::kP99Fct;
  if (s == "p50_fct_s") return SloMetric::kP50Fct;
  if (s == "mean_fct_s") return SloMetric::kMeanFct;
  if (s == "completed_frac") return SloMetric::kCompletedFrac;
  ctx.fail(node, "key \"metric\": unknown SLO metric " + quoted(s) +
                     " (expected " +
                     expected_list({"worst_fct_s", "p99_fct_s", "p50_fct_s",
                                    "mean_fct_s", "completed_frac"}) +
                     ")");
}

Engine engine_from(const Ctx& ctx, const JsonNode& node) {
  const std::string s = get_string(ctx, node, "engine");
  if (s == "fluid") return Engine::kFluid;
  if (s == "packet") return Engine::kPacket;
  if (s == "packet_sharded") return Engine::kPacketSharded;
  if (s == "autopilot") return Engine::kAutopilot;
  ctx.fail(node,
           "key \"engine\": unknown engine " + quoted(s) + " (expected " +
               expected_list({"fluid", "packet", "packet_sharded",
                              "autopilot"}) +
               ")");
}

RefreshMode refresh_from(const Ctx& ctx, const JsonNode& node) {
  const std::string s = get_string(ctx, node, "refresh");
  if (s == "repair") return RefreshMode::kRepair;
  if (s == "reroute") return RefreshMode::kReroute;
  if (s == "none") return RefreshMode::kNone;
  ctx.fail(node, "key \"refresh\": unknown refresh mode " + quoted(s) +
                     " (expected " +
                     expected_list({"repair", "reroute", "none"}) + ")");
}

// ---- sections ---------------------------------------------------------------

std::vector<PodMode> parse_mode_list(const Ctx& ctx, const JsonNode& node,
                                     std::string_view key,
                                     std::uint32_t pods) {
  expect_kind(ctx, node, JsonNode::Kind::kArray, key, "array");
  std::vector<PodMode> modes;
  modes.reserve(node.items.size());
  for (const JsonNode& item : node.items) {
    modes.push_back(pod_mode_from(ctx, item));
  }
  if (modes.size() != 1 && modes.size() != pods) {
    ctx.fail(node, "key " + quoted(key) + ": expected 1 or " +
                       std::to_string(pods) + " entries, got " +
                       std::to_string(modes.size()));
  }
  return modes;
}

TopologySpec parse_topology(const Ctx& ctx, const JsonNode& obj) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "topology", "object");
  check_keys(ctx, obj,
             {"kind", "k", "servers_per_edge", "m", "n", "pod_modes",
              "wiring_seed"},
             "topology");
  TopologySpec spec;
  spec.kind = topology_kind_from(ctx, require_key(ctx, obj, "kind"));
  if (const JsonNode* node = obj.find("k")) {
    spec.k = get_u32(ctx, *node, "k", 4, 32);
    if (spec.k % 2 != 0) ctx.fail(*node, "key \"k\": must be even");
  }
  if (const JsonNode* node = obj.find("servers_per_edge")) {
    spec.servers_per_edge = get_u32(ctx, *node, "servers_per_edge", 1, 256);
  } else {
    spec.servers_per_edge = spec.k / 2;
  }
  const bool flat = spec.kind == TopologyKind::kFatTree ||
                    spec.kind == TopologyKind::kFlatTree;
  if (const JsonNode* node = obj.find("m")) {
    if (!flat) {
      ctx.fail(*node,
               "key \"m\" is only valid for kind \"fat_tree\" or "
               "\"flat_tree\"");
    }
    spec.m = get_u32(ctx, *node, "m", 0, 256);
  }
  if (const JsonNode* node = obj.find("n")) {
    if (!flat) {
      ctx.fail(*node,
               "key \"n\" is only valid for kind \"fat_tree\" or "
               "\"flat_tree\"");
    }
    spec.n = get_u32(ctx, *node, "n", 0, 256);
  }
  if (const JsonNode* node = obj.find("pod_modes")) {
    if (spec.kind != TopologyKind::kFlatTree) {
      ctx.fail(*node, "key \"pod_modes\" is only valid for kind \"flat_tree\"");
    }
    spec.pod_modes = parse_mode_list(ctx, *node, "pod_modes", spec.k);
  } else if (spec.kind == TopologyKind::kFlatTree) {
    spec.pod_modes = {PodMode::kClos};
  }
  if (const JsonNode* node = obj.find("wiring_seed")) {
    if (spec.kind != TopologyKind::kRandomGraph &&
        spec.kind != TopologyKind::kTwoStage) {
      ctx.fail(*node,
               "key \"wiring_seed\" is only valid for kind \"random_graph\" "
               "or \"two_stage\"");
    }
    spec.wiring_seed = get_u64(ctx, *node, "wiring_seed");
  }
  return spec;
}

// Keys each traffic pattern understands, beyond the shared
// pattern/class/seed/start_s quartet.
std::span<const std::string_view> pattern_keys(TrafficPattern pattern) {
  static constexpr std::string_view kPermutation[] = {"bytes"};
  static constexpr std::string_view kIncast[] = {
      "groups", "fanin", "requests", "period_s", "pod_local", "mean_bytes",
      "alpha", "max_bytes"};
  static constexpr std::string_view kClass[] = {
      "duration_s", "flows_per_s", "mean_bytes", "alpha", "max_bytes",
      "intra_rack_frac", "intra_pod_frac", "hot_pod", "hot_pod_frac"};
  static constexpr std::string_view kThreeTier[] = {
      "duration_s", "requests_per_s", "frontend_frac", "cache_frac",
      "request_bytes", "cache_reply_bytes", "storage_reply_bytes",
      "miss_frac", "think_s"};
  static constexpr std::string_view kTrace[] = {"profile", "duration_s",
                                                "flows_per_s"};
  static constexpr std::string_view kTenantChurn[] = {
      "duration_s", "arrivals_per_s", "mean_lifetime_s", "flows_per_s"};
  switch (pattern) {
    case TrafficPattern::kPermutation: return kPermutation;
    case TrafficPattern::kIncast: return kIncast;
    case TrafficPattern::kClass: return kClass;
    case TrafficPattern::kThreeTier: return kThreeTier;
    case TrafficPattern::kTrace: return kTrace;
    case TrafficPattern::kTenantChurn: return kTenantChurn;
  }
  return {};
}

bool any_pattern_has_key(std::string_view key) {
  for (const TrafficPattern p :
       {TrafficPattern::kPermutation, TrafficPattern::kIncast,
        TrafficPattern::kClass, TrafficPattern::kThreeTier,
        TrafficPattern::kTrace, TrafficPattern::kTenantChurn}) {
    const auto keys = pattern_keys(p);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) return true;
  }
  return false;
}

TrafficSpec parse_traffic_entry(const Ctx& ctx, const JsonNode& obj,
                                std::uint64_t default_seed) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "traffic entry", "object");
  TrafficSpec spec;
  spec.pattern = traffic_pattern_from(ctx, require_key(ctx, obj, "pattern"));
  const auto allowed = pattern_keys(spec.pattern);
  for (const auto& [key, value] : obj.members) {
    if (key == "pattern" || key == "class" || key == "seed" ||
        key == "start_s") {
      continue;
    }
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    if (any_pattern_has_key(key)) {
      ctx.fail(value, "key " + quoted(key) + " is not valid for pattern " +
                          quoted(to_string(spec.pattern)));
    }
    ctx.fail(value, "unknown key " + quoted(key) + " in traffic entry");
  }
  if (const JsonNode* node = obj.find("class")) {
    spec.tenant_class = get_string(ctx, *node, "class");
    if (!is_identifier(spec.tenant_class)) {
      ctx.fail(*node, "key \"class\": must match [a-z0-9_]+");
    }
  }
  spec.seed = default_seed;
  if (const JsonNode* node = obj.find("seed")) {
    spec.seed = get_u64(ctx, *node, "seed");
  }
  if (const JsonNode* node = obj.find("start_s")) {
    spec.start_s = get_non_negative(ctx, *node, "start_s");
  }
  const auto num = [&](const char* key, double& out,
                       double (*get)(const Ctx&, const JsonNode&,
                                     std::string_view)) {
    if (const JsonNode* node = obj.find(key)) out = get(ctx, *node, key);
  };
  switch (spec.pattern) {
    case TrafficPattern::kPermutation:
      num("bytes", spec.bytes, get_positive);
      break;
    case TrafficPattern::kIncast: {
      if (const JsonNode* node = obj.find("groups")) {
        spec.groups = get_u32(ctx, *node, "groups", 1, 4096);
      }
      if (const JsonNode* node = obj.find("fanin")) {
        spec.fanin = get_u32(ctx, *node, "fanin", 1, 4096);
      }
      if (const JsonNode* node = obj.find("requests")) {
        spec.requests = get_u32(ctx, *node, "requests", 1, 4096);
      }
      num("period_s", spec.period_s, get_positive);
      if (const JsonNode* node = obj.find("pod_local")) {
        spec.pod_local = get_bool(ctx, *node, "pod_local");
      }
      num("mean_bytes", spec.mean_bytes, get_positive);
      num("max_bytes", spec.max_bytes, get_positive);
      if (const JsonNode* node = obj.find("alpha")) {
        spec.alpha = get_number(ctx, *node, "alpha");
        if (!(spec.alpha > 1)) ctx.fail(*node, "key \"alpha\": must be > 1");
      }
      break;
    }
    case TrafficPattern::kClass: {
      num("duration_s", spec.duration_s, get_positive);
      num("flows_per_s", spec.flows_per_s, get_positive);
      num("mean_bytes", spec.mean_bytes, get_positive);
      num("max_bytes", spec.max_bytes, get_positive);
      if (const JsonNode* node = obj.find("alpha")) {
        spec.alpha = get_number(ctx, *node, "alpha");
        if (!(spec.alpha > 1)) ctx.fail(*node, "key \"alpha\": must be > 1");
      } else {
        spec.alpha = 1.6;
      }
      num("intra_rack_frac", spec.intra_rack_frac, get_fraction);
      num("intra_pod_frac", spec.intra_pod_frac, get_fraction);
      if (const JsonNode* node = obj.find("hot_pod")) {
        spec.hot_pod = get_i32(ctx, *node, "hot_pod", -1, 1 << 20);
      }
      num("hot_pod_frac", spec.hot_pod_frac, get_fraction);
      break;
    }
    case TrafficPattern::kThreeTier: {
      num("duration_s", spec.duration_s, get_positive);
      num("requests_per_s", spec.requests_per_s, get_positive);
      num("frontend_frac", spec.frontend_frac, get_fraction);
      num("cache_frac", spec.cache_frac, get_fraction);
      num("request_bytes", spec.request_bytes, get_positive);
      num("cache_reply_bytes", spec.cache_reply_bytes, get_positive);
      num("storage_reply_bytes", spec.storage_reply_bytes, get_positive);
      num("miss_frac", spec.miss_frac, get_fraction);
      num("think_s", spec.think_s, get_non_negative);
      break;
    }
    case TrafficPattern::kTrace: {
      const JsonNode& profile = require_key(ctx, obj, "profile");
      spec.profile = get_string(ctx, profile, "profile");
      if (spec.profile != "hadoop1" && spec.profile != "hadoop2" &&
          spec.profile != "web" && spec.profile != "cache") {
        ctx.fail(profile,
                 "key \"profile\": unknown trace profile " +
                     quoted(spec.profile) + " (expected " +
                     expected_list({"hadoop1", "hadoop2", "web", "cache"}) +
                     ")");
      }
      num("duration_s", spec.duration_s, get_positive);
      spec.flows_per_s = 1000.0;
      num("flows_per_s", spec.flows_per_s, get_positive);
      break;
    }
    case TrafficPattern::kTenantChurn: {
      spec.duration_s = 10.0;
      num("duration_s", spec.duration_s, get_positive);
      num("arrivals_per_s", spec.arrivals_per_s, get_positive);
      num("mean_lifetime_s", spec.mean_lifetime_s, get_positive);
      spec.flows_per_s = 800.0;
      num("flows_per_s", spec.flows_per_s, get_positive);
      break;
    }
  }
  return spec;
}

FailureSpec parse_failure_entry(const Ctx& ctx, const JsonNode& obj,
                                std::uint64_t default_seed) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "failure entry", "object");
  FailureSpec spec;
  spec.kind = failure_kind_from(ctx, require_key(ctx, obj, "kind"));
  static constexpr std::string_view kShared[] = {"kind", "fail_at",
                                                 "recover_at", "flaps",
                                                 "period_s"};
  // A controller crash has no recovery window or flapping: the standby
  // takes over, the dead primary never comes back.
  static constexpr std::string_view kCrashShared[] = {"kind", "fail_at"};
  static constexpr std::string_view kCoreColumn[] = {"first", "count"};
  static constexpr std::string_view kLinks[] = {"fraction", "seed"};
  static constexpr std::string_view kSwitches[] = {"fraction", "role", "seed"};
  static constexpr std::string_view kControlPartition[] = {"first", "count"};
  const std::span<const std::string_view> shared =
      spec.kind == FailureKind::kControllerCrash
          ? std::span<const std::string_view>{kCrashShared}
          : std::span<const std::string_view>{kShared};
  std::span<const std::string_view> specific;
  switch (spec.kind) {
    case FailureKind::kCoreColumn:
      specific = kCoreColumn;
      break;
    case FailureKind::kLinks:
      specific = kLinks;
      break;
    case FailureKind::kSwitches:
      specific = kSwitches;
      break;
    case FailureKind::kControllerCrash:
      break;
    case FailureKind::kControlPartition:
      specific = kControlPartition;
      break;
  }
  for (const auto& [key, value] : obj.members) {
    if (std::find(shared.begin(), shared.end(), key) != shared.end()) continue;
    if (std::find(specific.begin(), specific.end(), key) != specific.end()) {
      continue;
    }
    ctx.fail(value, "key " + quoted(key) + " is not valid for failure kind " +
                        quoted(to_string(spec.kind)));
  }
  spec.fail_at = get_non_negative(ctx, require_key(ctx, obj, "fail_at"),
                                  "fail_at");
  if (const JsonNode* node = obj.find("recover_at")) {
    spec.recover_at = get_number(ctx, *node, "recover_at");
    if (!(spec.recover_at > spec.fail_at)) {
      ctx.fail(*node, "key \"recover_at\": must be greater than fail_at");
    }
  }
  switch (spec.kind) {
    case FailureKind::kCoreColumn:
    case FailureKind::kControlPartition:
      if (const JsonNode* node = obj.find("first")) {
        spec.first = get_u32(ctx, *node, "first", 0, 1 << 20);
      }
      spec.count =
          get_u32(ctx, require_key(ctx, obj, "count"), "count", 1, 1 << 20);
      break;
    case FailureKind::kControllerCrash:
      break;
    case FailureKind::kLinks:
    case FailureKind::kSwitches: {
      const JsonNode& fraction = require_key(ctx, obj, "fraction");
      spec.fraction = get_number(ctx, fraction, "fraction");
      if (!(spec.fraction > 0) || !(spec.fraction <= 1)) {
        ctx.fail(fraction, "key \"fraction\": must lie in (0, 1]");
      }
      if (spec.kind == FailureKind::kSwitches) {
        if (const JsonNode* node = obj.find("role")) {
          spec.role = get_string(ctx, *node, "role");
          if (spec.role != "edge" && spec.role != "agg" &&
              spec.role != "core") {
            ctx.fail(*node, "key \"role\": unknown switch role " +
                                quoted(spec.role) + " (expected " +
                                expected_list({"edge", "agg", "core"}) + ")");
          }
        }
      }
      spec.seed = default_seed;
      if (const JsonNode* node = obj.find("seed")) {
        spec.seed = get_u64(ctx, *node, "seed");
      }
      break;
    }
  }
  if (const JsonNode* node = obj.find("flaps")) {
    spec.flaps = get_u32(ctx, *node, "flaps", 1, 1024);
  }
  if (spec.flaps > 1) {
    if (spec.recover_at < 0) {
      ctx.fail(*obj.find("flaps"), "key \"flaps\": flapping requires recover_at");
    }
    const JsonNode& period = require_key(ctx, obj, "period_s");
    spec.period_s = get_positive(ctx, period, "period_s");
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
  check_keys(ctx, obj,
             {"at_s", "to", "staged", "stage_checkpoints", "ocs_partitions",
              "drop_probability", "channel_delay_s", "channel_timeout_s",
              "channel_backoff", "channel_jitter", "channel_max_attempts",
              "seed", "controllers", "ocs_s", "rule_delete_s", "rule_add_s"},
             "conversion");
  ConversionSpec spec;
  spec.present = true;
  spec.seed = default_seed;
  if (const JsonNode* node = obj.find("at_s")) {
    spec.at_s = get_non_negative(ctx, *node, "at_s");
  }
  spec.to = parse_mode_list(ctx, require_key(ctx, obj, "to"), "to", topology.k);
  if (const JsonNode* node = obj.find("staged")) {
    spec.staged = get_bool(ctx, *node, "staged");
  }
  if (const JsonNode* node = obj.find("stage_checkpoints")) {
    spec.stage_checkpoints = get_bool(ctx, *node, "stage_checkpoints");
    if (spec.stage_checkpoints && !spec.staged) {
      ctx.fail(*node, "key \"stage_checkpoints\" requires staged");
    }
  }
  if (const JsonNode* node = obj.find("ocs_partitions")) {
    spec.ocs_partitions = get_u32(ctx, *node, "ocs_partitions", 1, 64);
  }
  if (const JsonNode* node = obj.find("drop_probability")) {
    spec.drop_probability = get_number(ctx, *node, "drop_probability");
    if (!(spec.drop_probability >= 0) || !(spec.drop_probability < 1)) {
      ctx.fail(*node, "key \"drop_probability\": must lie in [0, 1)");
    }
  }
  // The remaining lossy-channel knobs are parsed for type only:
  // ControlChannelOptions::validate() is the single authority on channel
  // ranges, and the compiler calls it before any cell runs — so every
  // rejection message has exactly one home (and the regression tests pin
  // each one there).
  if (const JsonNode* node = obj.find("channel_delay_s")) {
    spec.channel_delay_s = get_number(ctx, *node, "channel_delay_s");
  }
  if (const JsonNode* node = obj.find("channel_timeout_s")) {
    spec.channel_timeout_s = get_number(ctx, *node, "channel_timeout_s");
  }
  if (const JsonNode* node = obj.find("channel_backoff")) {
    spec.channel_backoff = get_number(ctx, *node, "channel_backoff");
  }
  if (const JsonNode* node = obj.find("channel_jitter")) {
    spec.channel_jitter = get_number(ctx, *node, "channel_jitter");
  }
  if (const JsonNode* node = obj.find("channel_max_attempts")) {
    spec.channel_max_attempts =
        get_u32(ctx, *node, "channel_max_attempts", 0, 1 << 20);
  }
  if (const JsonNode* node = obj.find("seed")) {
    spec.seed = get_u64(ctx, *node, "seed");
  }
  if (const JsonNode* node = obj.find("controllers")) {
    spec.controllers = get_u32(ctx, *node, "controllers", 1, 4096);
  }
  // The per-operation delays deliberately get no parse-time range check:
  // ConversionDelayModel::validate() is the single authority on what a legal
  // delay model is, and the compiler invokes it (satellite: invalid embedded
  // models are rejected before any cell runs, with this file's name).
  if (const JsonNode* node = obj.find("ocs_s")) {
    spec.ocs_s = get_number(ctx, *node, "ocs_s");
  }
  if (const JsonNode* node = obj.find("rule_delete_s")) {
    spec.rule_delete_s = get_number(ctx, *node, "rule_delete_s");
  }
  if (const JsonNode* node = obj.find("rule_add_s")) {
    spec.rule_add_s = get_number(ctx, *node, "rule_add_s");
  }
  return spec;
}

SloSpec parse_slo(const Ctx& ctx, const JsonNode& obj,
                  const std::vector<TrafficSpec>& traffic) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject, "slo entry", "object");
  check_keys(ctx, obj, {"class", "metric", "max", "min"}, "slo entry");
  SloSpec spec;
  if (const JsonNode* node = obj.find("class")) {
    spec.tenant_class = get_string(ctx, *node, "class");
    if (!spec.tenant_class.empty()) {
      const bool defined =
          std::any_of(traffic.begin(), traffic.end(), [&](const TrafficSpec& t) {
            return t.tenant_class == spec.tenant_class;
          });
      if (!defined) {
        ctx.fail(*node, "key \"class\": tenant class " +
                            quoted(spec.tenant_class) +
                            " is not defined by any traffic entry");
      }
    }
  }
  spec.metric = slo_metric_from(ctx, require_key(ctx, obj, "metric"));
  if (const JsonNode* node = obj.find("max")) {
    spec.has_max = true;
    spec.max_value = get_number(ctx, *node, "max");
  }
  if (const JsonNode* node = obj.find("min")) {
    spec.has_min = true;
    spec.min_value = get_number(ctx, *node, "min");
  }
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
  const bool flat = topology.kind == TopologyKind::kFatTree ||
                    topology.kind == TopologyKind::kFlatTree;
  SimSpec spec;
  spec.refresh = flat ? RefreshMode::kRepair : RefreshMode::kReroute;
  if (obj == nullptr) return spec;
  expect_kind(ctx, *obj, JsonNode::Kind::kObject, "sim", "object");
  spec.engine = engine_from(ctx, require_key(ctx, *obj, "engine"));
  static constexpr std::string_view kShared[] = {"engine", "max_time_s",
                                                 "k_paths"};
  static constexpr std::string_view kFluid[] = {"refresh", "repair_lag_s",
                                                "controllers", "count_rules"};
  static constexpr std::string_view kAutopilot[] = {"epoch_s"};
  const std::span<const std::string_view> shared = kShared;
  std::span<const std::string_view> specific;
  switch (spec.engine) {
    case Engine::kFluid:
      specific = kFluid;
      break;
    case Engine::kPacket:
    case Engine::kPacketSharded:
      break;
    case Engine::kAutopilot:
      specific = kAutopilot;
      break;
  }
  for (const auto& [key, value] : obj->members) {
    if (std::find(shared.begin(), shared.end(), key) != shared.end()) continue;
    if (std::find(specific.begin(), specific.end(), key) != specific.end()) {
      continue;
    }
    ctx.fail(value, "key " + quoted(key) + " is not valid for engine " +
                        quoted(to_string(spec.engine)));
  }
  if (const JsonNode* node = obj->find("max_time_s")) {
    spec.max_time_s = get_positive(ctx, *node, "max_time_s");
  }
  if (const JsonNode* node = obj->find("k_paths")) {
    spec.k_paths = get_u32(ctx, *node, "k_paths", 1, 64);
  }
  if (const JsonNode* node = obj->find("refresh")) {
    spec.refresh = refresh_from(ctx, *node);
    if (spec.refresh == RefreshMode::kRepair && !flat) {
      ctx.fail(*node,
               "key \"refresh\": \"repair\" requires topology kind "
               "\"fat_tree\" or \"flat_tree\"");
    }
  }
  if (const JsonNode* node = obj->find("repair_lag_s")) {
    spec.repair_lag_s = get_non_negative(ctx, *node, "repair_lag_s");
  }
  if (const JsonNode* node = obj->find("controllers")) {
    spec.controllers = get_u32(ctx, *node, "controllers", 1, 4096);
  }
  if (const JsonNode* node = obj->find("count_rules")) {
    spec.count_rules = get_bool(ctx, *node, "count_rules");
  }
  if (const JsonNode* node = obj->find("epoch_s")) {
    spec.epoch_s = get_positive(ctx, *node, "epoch_s");
  }
  return spec;
}

}  // namespace

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFatTree: return "fat_tree";
    case TopologyKind::kFlatTree: return "flat_tree";
    case TopologyKind::kRandomGraph: return "random_graph";
    case TopologyKind::kTwoStage: return "two_stage";
  }
  return "?";
}

const char* to_string(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kPermutation: return "permutation";
    case TrafficPattern::kIncast: return "incast";
    case TrafficPattern::kClass: return "class";
    case TrafficPattern::kThreeTier: return "three_tier";
    case TrafficPattern::kTrace: return "trace";
    case TrafficPattern::kTenantChurn: return "tenant_churn";
  }
  return "?";
}

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kCoreColumn: return "core_column";
    case FailureKind::kLinks: return "links";
    case FailureKind::kSwitches: return "switches";
    case FailureKind::kControllerCrash: return "controller_crash";
    case FailureKind::kControlPartition: return "control_partition";
  }
  return "?";
}

const char* to_string(SloMetric metric) {
  switch (metric) {
    case SloMetric::kWorstFct: return "worst_fct_s";
    case SloMetric::kP99Fct: return "p99_fct_s";
    case SloMetric::kP50Fct: return "p50_fct_s";
    case SloMetric::kMeanFct: return "mean_fct_s";
    case SloMetric::kCompletedFrac: return "completed_frac";
  }
  return "?";
}

const char* to_string(Engine engine) {
  switch (engine) {
    case Engine::kFluid: return "fluid";
    case Engine::kPacket: return "packet";
    case Engine::kPacketSharded: return "packet_sharded";
    case Engine::kAutopilot: return "autopilot";
  }
  return "?";
}

const char* to_string(RefreshMode mode) {
  switch (mode) {
    case RefreshMode::kRepair: return "repair";
    case RefreshMode::kReroute: return "reroute";
    case RefreshMode::kNone: return "none";
  }
  return "?";
}

Scenario parse_scenario(std::string_view text, std::string_view file) {
  const Ctx ctx{file};
  const JsonNode root = obs::json::parse(text, file);
  if (root.kind != JsonNode::Kind::kObject) {
    ctx.fail(root, std::string{"expected a scenario object, got "} +
                       root.kind_name());
  }
  check_keys(ctx, root,
             {"name", "seed", "expect", "topology", "traffic", "failures",
              "conversion", "slos", "sim"},
             "scenario");

  Scenario scenario;
  const JsonNode& name = require_key(ctx, root, "name");
  scenario.name = get_string(ctx, name, "name");
  if (!is_identifier(scenario.name)) {
    ctx.fail(name, "key \"name\": must match [a-z0-9_]+");
  }
  if (const JsonNode* node = root.find("seed")) {
    scenario.seed = get_u64(ctx, *node, "seed");
  }
  if (const JsonNode* node = root.find("expect")) {
    const std::string verdict = get_string(ctx, *node, "expect");
    if (verdict == "pass") {
      scenario.expect_pass = true;
    } else if (verdict == "fail") {
      scenario.expect_pass = false;
    } else {
      ctx.fail(*node, "key \"expect\": unknown verdict " + quoted(verdict) +
                          " (expected " + expected_list({"pass", "fail"}) +
                          ")");
    }
  }

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

void write_mode_list(JsonWriter& w, std::string_view key,
                     const std::vector<PodMode>& modes) {
  w.key(key);
  w.begin_array();
  for (const PodMode mode : modes) w.value(mode_name(mode));
  w.end_array();
}

void write_topology(JsonWriter& w, const TopologySpec& t) {
  w.key("topology");
  w.begin_object();
  w.key("kind");
  w.value(to_string(t.kind));
  w.key("k");
  w.value(t.k);
  w.key("servers_per_edge");
  w.value(t.servers_per_edge);
  if (t.m != TopologySpec::kAuto) {
    w.key("m");
    w.value(t.m);
  }
  if (t.n != TopologySpec::kAuto) {
    w.key("n");
    w.value(t.n);
  }
  if (t.kind == TopologyKind::kFlatTree) {
    write_mode_list(w, "pod_modes", t.pod_modes);
  }
  if (t.kind == TopologyKind::kRandomGraph ||
      t.kind == TopologyKind::kTwoStage) {
    w.key("wiring_seed");
    w.value(t.wiring_seed);
  }
  w.end_object();
}

void write_traffic_entry(JsonWriter& w, const TrafficSpec& t) {
  w.begin_object();
  w.key("pattern");
  w.value(to_string(t.pattern));
  w.key("class");
  w.value(t.tenant_class);
  w.key("seed");
  w.value(t.seed);
  w.key("start_s");
  w.value(t.start_s);
  const auto num = [&](const char* key, double v) {
    w.key(key);
    w.value(v);
  };
  switch (t.pattern) {
    case TrafficPattern::kPermutation:
      num("bytes", t.bytes);
      break;
    case TrafficPattern::kIncast:
      w.key("groups");
      w.value(t.groups);
      w.key("fanin");
      w.value(t.fanin);
      w.key("requests");
      w.value(t.requests);
      num("period_s", t.period_s);
      w.key("pod_local");
      w.value(t.pod_local);
      num("mean_bytes", t.mean_bytes);
      num("alpha", t.alpha);
      num("max_bytes", t.max_bytes);
      break;
    case TrafficPattern::kClass:
      num("duration_s", t.duration_s);
      num("flows_per_s", t.flows_per_s);
      num("mean_bytes", t.mean_bytes);
      num("alpha", t.alpha);
      num("max_bytes", t.max_bytes);
      num("intra_rack_frac", t.intra_rack_frac);
      num("intra_pod_frac", t.intra_pod_frac);
      w.key("hot_pod");
      w.value(static_cast<std::int64_t>(t.hot_pod));
      num("hot_pod_frac", t.hot_pod_frac);
      break;
    case TrafficPattern::kThreeTier:
      num("duration_s", t.duration_s);
      num("requests_per_s", t.requests_per_s);
      num("frontend_frac", t.frontend_frac);
      num("cache_frac", t.cache_frac);
      num("request_bytes", t.request_bytes);
      num("cache_reply_bytes", t.cache_reply_bytes);
      num("storage_reply_bytes", t.storage_reply_bytes);
      num("miss_frac", t.miss_frac);
      num("think_s", t.think_s);
      break;
    case TrafficPattern::kTrace:
      w.key("profile");
      w.value(t.profile);
      num("duration_s", t.duration_s);
      num("flows_per_s", t.flows_per_s);
      break;
    case TrafficPattern::kTenantChurn:
      num("duration_s", t.duration_s);
      num("arrivals_per_s", t.arrivals_per_s);
      num("mean_lifetime_s", t.mean_lifetime_s);
      num("flows_per_s", t.flows_per_s);
      break;
  }
  w.end_object();
}

void write_failure_entry(JsonWriter& w, const FailureSpec& f) {
  w.begin_object();
  w.key("kind");
  w.value(to_string(f.kind));
  w.key("fail_at");
  w.value(f.fail_at);
  if (f.recover_at >= 0) {
    w.key("recover_at");
    w.value(f.recover_at);
  }
  switch (f.kind) {
    case FailureKind::kCoreColumn:
    case FailureKind::kControlPartition:
      w.key("first");
      w.value(f.first);
      w.key("count");
      w.value(f.count);
      break;
    case FailureKind::kLinks:
      w.key("fraction");
      w.value(f.fraction);
      break;
    case FailureKind::kSwitches:
      w.key("fraction");
      w.value(f.fraction);
      w.key("role");
      w.value(f.role);
      break;
    case FailureKind::kControllerCrash:
      break;
  }
  // controller_crash admits neither flapping nor a seed; materializing
  // either would break the canonical fixed point (the reparse rejects the
  // key).
  if (f.kind != FailureKind::kControllerCrash) {
    w.key("flaps");
    w.value(f.flaps);
    if (f.flaps > 1) {
      w.key("period_s");
      w.value(f.period_s);
    }
  }
  if (f.kind == FailureKind::kLinks || f.kind == FailureKind::kSwitches) {
    w.key("seed");
    w.value(f.seed);
  }
  w.end_object();
}

void write_conversion(JsonWriter& w, const ConversionSpec& c) {
  w.key("conversion");
  w.begin_object();
  w.key("at_s");
  w.value(c.at_s);
  write_mode_list(w, "to", c.to);
  w.key("staged");
  w.value(c.staged);
  w.key("stage_checkpoints");
  w.value(c.stage_checkpoints);
  w.key("ocs_partitions");
  w.value(c.ocs_partitions);
  w.key("drop_probability");
  w.value(c.drop_probability);
  w.key("channel_delay_s");
  w.value(c.channel_delay_s);
  w.key("channel_timeout_s");
  w.value(c.channel_timeout_s);
  w.key("channel_backoff");
  w.value(c.channel_backoff);
  w.key("channel_jitter");
  w.value(c.channel_jitter);
  w.key("channel_max_attempts");
  w.value(c.channel_max_attempts);
  w.key("seed");
  w.value(c.seed);
  w.key("controllers");
  w.value(c.controllers);
  w.key("ocs_s");
  w.value(c.ocs_s);
  w.key("rule_delete_s");
  w.value(c.rule_delete_s);
  w.key("rule_add_s");
  w.value(c.rule_add_s);
  w.end_object();
}

void write_slo(JsonWriter& w, const SloSpec& s) {
  w.begin_object();
  w.key("class");
  w.value(s.tenant_class);
  w.key("metric");
  w.value(to_string(s.metric));
  if (s.has_max) {
    w.key("max");
    w.value(s.max_value);
  }
  if (s.has_min) {
    w.key("min");
    w.value(s.min_value);
  }
  w.end_object();
}

void write_sim(JsonWriter& w, const SimSpec& s) {
  w.key("sim");
  w.begin_object();
  w.key("engine");
  w.value(to_string(s.engine));
  w.key("max_time_s");
  w.value(s.max_time_s);
  w.key("k_paths");
  w.value(s.k_paths);
  switch (s.engine) {
    case Engine::kFluid:
      w.key("refresh");
      w.value(to_string(s.refresh));
      if (s.repair_lag_s >= 0) {
        w.key("repair_lag_s");
        w.value(s.repair_lag_s);
      }
      w.key("controllers");
      w.value(s.controllers);
      w.key("count_rules");
      w.value(s.count_rules);
      break;
    case Engine::kPacket:
    case Engine::kPacketSharded:
      break;
    case Engine::kAutopilot:
      w.key("epoch_s");
      w.value(s.epoch_s);
      break;
  }
  w.end_object();
}

}  // namespace

std::string canonical_json(const Scenario& scenario) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value(scenario.name);
  w.key("seed");
  w.value(scenario.seed);
  w.key("expect");
  w.value(scenario.expect_pass ? "pass" : "fail");
  write_topology(w, scenario.topology);
  w.key("traffic");
  w.begin_array();
  for (const TrafficSpec& t : scenario.traffic) write_traffic_entry(w, t);
  w.end_array();
  if (!scenario.failures.empty()) {
    w.key("failures");
    w.begin_array();
    for (const FailureSpec& f : scenario.failures) write_failure_entry(w, f);
    w.end_array();
  }
  if (scenario.conversion.present) {
    write_conversion(w, scenario.conversion);
  }
  if (!scenario.slos.empty()) {
    w.key("slos");
    w.begin_array();
    for (const SloSpec& s : scenario.slos) write_slo(w, s);
    w.end_array();
  }
  write_sim(w, scenario.sim);
  w.end_object();
  return w.take();
}

}  // namespace flattree::scenario
