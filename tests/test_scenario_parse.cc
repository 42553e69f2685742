// Negative-path coverage for the scenario DSL: every malformed spec must be
// rejected with its exact "<file>:<line>:<col>: ..." diagnostic — never a
// silent default — and compile-stage rejections (realized-topology checks,
// FailureSchedule::validate, ConversionDelayModel::validate) must land at
// parse/compile time with the file name attached, never mid-run.
#include "scenario/spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/runner.h"

namespace flattree::scenario {
namespace {

// Asserts parse_scenario(text, "bad.json") throws exactly `expected`. The
// expected string is position-anchored: the offending token's line:col must
// match too, so a diagnostic that drifts to the wrong token fails here.
void expect_parse_error(std::string_view text, std::string_view expected) {
  try {
    (void)parse_scenario(text, "bad.json");
    FAIL() << "expected ScenarioError: " << expected;
  } catch (const ScenarioError& e) {
    EXPECT_EQ(std::string{e.what()}, expected) << "for input:\n" << text;
  }
}

// A minimal valid scenario the mutation cases below perturb one key at a
// time; parsing it must succeed.
constexpr std::string_view kValid = R"({
  "name": "ok",
  "topology": {"kind": "fat_tree", "k": 4},
  "traffic": [{"pattern": "permutation"}]
})";

TEST(ScenarioParse, MinimalScenarioParses) {
  const Scenario s = parse_scenario(kValid, "ok.json");
  EXPECT_EQ(s.name, "ok");
  EXPECT_EQ(s.topology.kind, TopologyKind::kFatTree);
  EXPECT_EQ(s.traffic.size(), 1u);
  EXPECT_EQ(s.sim.engine, Engine::kFluid);
  // Seed resolution: entry i defaults to scenario seed + i.
  EXPECT_EQ(s.traffic[0].seed, s.seed + 0);
}

// ---- JSON layer -------------------------------------------------------------

TEST(ScenarioParse, MalformedJson) {
  expect_parse_error("{\"name\": }",
                     "bad.json:1:10: unexpected character '}'");
}

TEST(ScenarioParse, DuplicateKey) {
  expect_parse_error("{\"name\": \"a\", \"name\": \"b\"}",
                     "bad.json:1:15: duplicate key \"name\"");
}

TEST(ScenarioParse, TrailingContent) {
  expect_parse_error("{} x",
                     "bad.json:1:4: trailing content after the top-level value");
}

TEST(ScenarioParse, UnterminatedString) {
  expect_parse_error("{\"name\": \"oops",
                     "bad.json:1:15: unterminated string");
}

TEST(ScenarioParse, TopLevelMustBeObject) {
  expect_parse_error("[1]",
                     "bad.json:1:1: expected a scenario object, got array");
}

// A million nested '[' once overflowed the recursive-descent stack
// (SIGSEGV); nesting past obs::json::kMaxDepth is a positioned diagnostic
// at the first bracket beyond the limit.
TEST(ScenarioParse, NestingDepthIsBounded) {
  expect_parse_error(std::string(1000000, '['),
                     "bad.json:1:257: arrays and objects nested deeper than "
                     "256 levels");
}

// ---- scenario section -------------------------------------------------------

TEST(ScenarioParse, MissingName) {
  expect_parse_error("{}", "bad.json:1:1: missing required key \"name\"");
}

TEST(ScenarioParse, UnknownTopLevelKey) {
  expect_parse_error("{\"nom\": 1}",
                     "bad.json:1:9: unknown key \"nom\" in scenario");
}

TEST(ScenarioParse, NameMustBeIdentifier) {
  expect_parse_error("{\"name\": \"Bad Name\"}",
                     "bad.json:1:10: key \"name\": must match [a-z0-9_]+");
}

TEST(ScenarioParse, MissingTopology) {
  expect_parse_error("{\"name\": \"x\"}",
                     "bad.json:1:1: missing required key \"topology\"");
}

TEST(ScenarioParse, UnknownExpectVerdict) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"expect\": \"maybe\"}",
      "bad.json:2:12: key \"expect\": unknown verdict \"maybe\" (expected "
      "\"pass\" or \"fail\")");
}

// ---- topology section -------------------------------------------------------

TEST(ScenarioParse, UnknownTopologyKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"butterfly\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:23: key \"kind\": unknown topology kind \"butterfly\" "
      "(expected \"fat_tree\", \"flat_tree\", \"random_graph\" or "
      "\"two_stage\")");
}

TEST(ScenarioParse, OddKRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\", \"k\": 5},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:40: key \"k\": must be even");
}

TEST(ScenarioParse, KOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\", \"k\": 2},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:40: key \"k\": value 2 out of range [4, 32]");
}

TEST(ScenarioParse, PodModesRequireFlatTree) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\",\n"
      "  \"pod_modes\": [\"clos\"]},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:16: key \"pod_modes\" is only valid for kind \"flat_tree\"");
}

TEST(ScenarioParse, PodModesCountMustBeOneOrK) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\",\n"
      "  \"pod_modes\": [\"clos\", \"global\"]},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:16: key \"pod_modes\": expected 1 or 4 entries, got 2");
}

TEST(ScenarioParse, UnknownPodMode) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\",\n"
      "  \"pod_modes\": [\"hybrid\"]},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:17: unknown Pod mode \"hybrid\" (expected \"clos\", "
      "\"local\" or \"global\")");
}

TEST(ScenarioParse, WiringSeedRequiresRandomKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\",\n"
      "  \"wiring_seed\": 3},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:18: key \"wiring_seed\" is only valid for kind "
      "\"random_graph\" or \"two_stage\"");
}

// ---- traffic section --------------------------------------------------------

TEST(ScenarioParse, EmptyTrafficRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": []}",
      "bad.json:3:13: key \"traffic\": at least one traffic entry is "
      "required");
}

TEST(ScenarioParse, UnknownTrafficPattern) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"storm\"}]}",
      "bad.json:3:26: key \"pattern\": unknown traffic pattern \"storm\" "
      "(expected \"permutation\", \"incast\", \"class\", \"three_tier\", "
      "\"trace\" or \"tenant_churn\")");
}

TEST(ScenarioParse, KeyOfAnotherPatternRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\",\n"
      "  \"fanin\": 4}]}",
      "bad.json:4:12: key \"fanin\" is not valid for pattern "
      "\"permutation\"");
}

TEST(ScenarioParse, UnknownTrafficKeyRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\",\n"
      "  \"bogus\": 4}]}",
      "bad.json:4:12: unknown key \"bogus\" in traffic entry");
}

TEST(ScenarioParse, ParetoAlphaMustExceedOne) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"incast\",\n"
      "  \"alpha\": 1.0}]}",
      "bad.json:4:12: key \"alpha\": must be > 1");
}

TEST(ScenarioParse, UnknownTraceProfile) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"trace\",\n"
      "  \"profile\": \"hadoop3\"}]}",
      "bad.json:4:14: key \"profile\": unknown trace profile \"hadoop3\" "
      "(expected \"hadoop1\", \"hadoop2\", \"web\" or \"cache\")");
}

// ---- failure section --------------------------------------------------------

TEST(ScenarioParse, RecoverMustFollowFail) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"recover_at\": 0.5}]}",
      "bad.json:5:33: key \"recover_at\": must be greater than fail_at");
}

TEST(ScenarioParse, FlappingRequiresRecoverAt) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"flaps\": 3}]}",
      "bad.json:5:28: key \"flaps\": flapping requires recover_at");
}

TEST(ScenarioParse, PeriodRequiresFlaps) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"period_s\": 1.0}]}",
      "bad.json:5:31: key \"period_s\" requires flaps > 1");
}

TEST(ScenarioParse, FlapPeriodMustExceedWindow) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"recover_at\": 1.0, \"flaps\": 2,\n"
      "  \"period_s\": 0.25}]}",
      "bad.json:6:15: key \"period_s\": flap period must exceed recover_at "
      "- fail_at");
}

TEST(ScenarioParse, OverlappingWindowsSameSelector) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [\n"
      "  {\"kind\": \"core_column\", \"count\": 2, \"fail_at\": 0.1,"
      " \"recover_at\": 0.5},\n"
      "  {\"kind\": \"core_column\", \"count\": 2, \"fail_at\": 0.3,"
      " \"recover_at\": 0.7}]}",
      "bad.json:6:3: failure window overlaps an earlier window for the same "
      "selector");
}

TEST(ScenarioParse, FractionOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 1.5,\n"
      "  \"fail_at\": 0.5}]}",
      "bad.json:4:45: key \"fraction\": must lie in (0, 1]");
}

// ---- conversion / slo / sim cross checks ------------------------------------

TEST(ScenarioParse, ConversionRequiresFlatTree) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]}}",
      "bad.json:4:16: conversion requires topology kind \"flat_tree\"");
}

TEST(ScenarioParse, SloRequiresMaxOrMin) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p99_fct_s\"}]}",
      "bad.json:4:11: slo requires \"max\" or \"min\"");
}

TEST(ScenarioParse, SloClassMustBeDefined) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"class\": \"gold\", \"metric\": \"p99_fct_s\","
      " \"max\": 1.0}]}",
      "bad.json:4:21: key \"class\": tenant class \"gold\" is not defined "
      "by any traffic entry");
}

TEST(ScenarioParse, FailuresUnsupportedOffFluid) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,"
      " \"fail_at\": 0.5}],\n"
      " \"sim\": {\"engine\": \"packet\"}}",
      "bad.json:4:14: key \"failures\" is not supported by engine "
      "\"packet\"");
}

TEST(ScenarioParse, AutopilotSupportsAggregateSlosOnly) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p99_fct_s\", \"max\": 1.0}],\n"
      " \"sim\": {\"engine\": \"autopilot\"}}",
      "bad.json:4:11: engine \"autopilot\" supports aggregate SLOs only "
      "(class \"\", metric \"mean_fct_s\" or \"completed_frac\")");
}

TEST(ScenarioParse, RepairRefreshRequiresFlatKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"random_graph\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"fluid\", \"refresh\": \"repair\"}}",
      "bad.json:4:40: key \"refresh\": \"repair\" requires topology kind "
      "\"fat_tree\" or \"flat_tree\"");
}

// ---- grammar sweep ----------------------------------------------------------
// Every variant-scoped key must be rejected with its variant's diagnostic
// when it appears under another variant. The key sets come from the
// canonical forms of one fully populated spec per variant, so a key added
// to one variant is swept against every other variant without editing
// this test.

// "line:col" of byte `offset` of `text`.
std::string position_of(std::string_view text, std::size_t offset) {
  const std::size_t line_start = text.rfind('\n', offset - 1);
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(text.begin(), text.begin() + offset, '\n'));
  const std::size_t column =
      line_start == std::string_view::npos ? offset + 1
                                           : offset - line_start;
  return std::to_string(line) + ":" + std::to_string(column);
}

// The member keys, in order, of one section of `text`'s canonical form.
// `pick` selects the section object from the canonical root.
template <typename Pick>
std::vector<std::string> canonical_keys(const std::string& text, Pick pick) {
  const std::string canonical =
      canonical_json(parse_scenario(text, "variant.json"));
  const JsonNode root = obs::json::parse(canonical, "canonical.json");
  std::vector<std::string> keys;
  for (const auto& member : pick(root).members) keys.push_back(member.first);
  return keys;
}

struct Variant {
  std::string name;  // the pattern / failure kind / engine
  std::string text;  // a full scenario; `open` marks where keys go
  std::string open;  // the variant's object, without its closing brace
};

// For each variant, injects every key another variant's canonical section
// holds and this one's does not, and expects `what` + the variant's name,
// anchored at the injected value.
template <typename Pick>
void sweep_foreign_keys(const std::vector<Variant>& variants, Pick pick,
                        std::string_view what) {
  std::vector<std::vector<std::string>> keys;
  for (const Variant& v : variants) keys.push_back(canonical_keys(v.text, pick));
  std::size_t injected = 0;
  for (std::size_t own = 0; own < variants.size(); ++own) {
    const Variant& v = variants[own];
    std::vector<std::string> seen;
    for (std::size_t other = 0; other < variants.size(); ++other) {
      for (const std::string& key : keys[other]) {
        if (std::find(keys[own].begin(), keys[own].end(), key) !=
                keys[own].end() ||
            std::find(seen.begin(), seen.end(), key) != seen.end()) {
          continue;
        }
        seen.push_back(key);
        std::string text = v.text;
        const std::size_t at = text.find(v.open);
        ASSERT_NE(at, std::string::npos) << v.open;
        const std::string member = ",\n  \"" + key + "\": ";
        text.insert(at + v.open.size(), member + "1");
        const std::size_t value = at + v.open.size() + member.size();
        expect_parse_error(text, "bad.json:" + position_of(text, value) +
                                     ": key \"" + key + "\" is not valid for " +
                                     std::string{what} + " \"" + v.name +
                                     "\"");
        ++injected;
      }
    }
  }
  EXPECT_GT(injected, 0u);
}

constexpr std::string_view kHead =
    "{\"name\": \"x\",\n"
    " \"topology\": {\"kind\": \"flat_tree\"},\n";

TEST(ScenarioGrammarSweep, ForeignTrafficKeysNameThePattern) {
  const std::vector<std::string> opens = {
      "{\"pattern\": \"permutation\"",
      "{\"pattern\": \"incast\"",
      "{\"pattern\": \"class\"",
      "{\"pattern\": \"three_tier\"",
      "{\"pattern\": \"trace\", \"profile\": \"web\"",
      "{\"pattern\": \"tenant_churn\""};
  const std::vector<std::string> names = {"permutation", "incast",
                                          "class",       "three_tier",
                                          "trace",       "tenant_churn"};
  std::vector<Variant> variants;
  for (std::size_t i = 0; i < opens.size(); ++i) {
    variants.push_back(
        {names[i],
         std::string{kHead} + " \"traffic\": [" + opens[i] + "}]}", opens[i]});
  }
  sweep_foreign_keys(
      variants,
      [](const JsonNode& root) -> const JsonNode& {
        return root.find("traffic")->items[0];
      },
      "pattern");
}

TEST(ScenarioGrammarSweep, ForeignFailureKeysNameTheKind) {
  // Windowed kinds flap so recover_at / flaps / period_s all appear in
  // their canonical forms; the control kinds ride on a conversion.
  const std::string window =
      ", \"fail_at\": 0.5, \"recover_at\": 1.0, \"flaps\": 2, "
      "\"period_s\": 2.0";
  const std::string conversion = ",\n \"conversion\": {\"to\": [\"global\"]}";
  struct Kind {
    std::string name;
    std::string open;
    bool control;
  };
  const std::vector<Kind> kinds = {
      {"core_column",
       "{\"kind\": \"core_column\"" + window + ", \"first\": 0, \"count\": 1",
       false},
      {"links",
       "{\"kind\": \"links\"" + window + ", \"fraction\": 0.1, \"seed\": 3",
       false},
      {"switches",
       "{\"kind\": \"switches\"" + window +
           ", \"fraction\": 0.1, \"role\": \"agg\", \"seed\": 3",
       false},
      {"controller_crash", "{\"kind\": \"controller_crash\", \"fail_at\": 0.5",
       true},
      {"control_partition",
       "{\"kind\": \"control_partition\"" + window +
           ", \"first\": 0, \"count\": 1",
       true}};
  std::vector<Variant> variants;
  for (const Kind& k : kinds) {
    variants.push_back(
        {k.name,
         std::string{kHead} +
             " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
             " \"failures\": [" + k.open + "}]" +
             (k.control ? conversion : std::string{}) + "}",
         k.open});
  }
  sweep_foreign_keys(
      variants,
      [](const JsonNode& root) -> const JsonNode& {
        return root.find("failures")->items[0];
      },
      "failure kind");
}

TEST(ScenarioGrammarSweep, ForeignSimKeysNameTheEngine) {
  const std::vector<std::string> opens = {
      "{\"engine\": \"fluid\", \"repair_lag_s\": 0.5",
      "{\"engine\": \"packet\"", "{\"engine\": \"packet_sharded\"",
      "{\"engine\": \"autopilot\""};
  const std::vector<std::string> names = {"fluid", "packet", "packet_sharded",
                                          "autopilot"};
  std::vector<Variant> variants;
  for (std::size_t i = 0; i < opens.size(); ++i) {
    variants.push_back(
        {names[i],
         std::string{kHead} +
             " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
             " \"sim\": " + opens[i] + "}}",
         opens[i]});
  }
  sweep_foreign_keys(
      variants,
      [](const JsonNode& root) -> const JsonNode& { return *root.find("sim"); },
      "engine");
}

// Every enum-valued key: an unknown name yields the full "(expected ...)"
// list, anchored at the offending string.
TEST(ScenarioGrammarSweep, UnknownEnumNamesListEveryName) {
  const std::string traffic =
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n";
  struct Case {
    std::string text;
    std::string what;  // the diagnostic after "bad.json:<line>:<col>: "
  };
  const std::vector<Case> cases = {
      {"{\"name\": \"x\",\n \"expect\": \"bogus\"}",
       "key \"expect\": unknown verdict \"bogus\" (expected \"pass\" or "
       "\"fail\")"},
      {"{\"name\": \"x\",\n \"topology\": {\"kind\": \"bogus\"}}",
       "key \"kind\": unknown topology kind \"bogus\" (expected "
       "\"fat_tree\", \"flat_tree\", \"random_graph\" or \"two_stage\")"},
      {"{\"name\": \"x\",\n"
       " \"topology\": {\"kind\": \"flat_tree\", \"pod_modes\": "
           "[\"bogus\"]}}",
       "unknown Pod mode \"bogus\" (expected \"clos\", \"local\" or "
       "\"global\")"},
      {std::string{kHead} + " \"traffic\": [{\"pattern\": \"bogus\"}]}",
       "key \"pattern\": unknown traffic pattern \"bogus\" (expected "
       "\"permutation\", \"incast\", \"class\", \"three_tier\", \"trace\" "
       "or \"tenant_churn\")"},
      {std::string{kHead} +
           " \"traffic\": [{\"pattern\": \"trace\", \"profile\": "
           "\"bogus\"}]}",
       "key \"profile\": unknown trace profile \"bogus\" (expected "
       "\"hadoop1\", \"hadoop2\", \"web\" or \"cache\")"},
      {std::string{kHead} + traffic +
           " \"failures\": [{\"kind\": \"bogus\", \"fail_at\": 0.5}]}",
       "key \"kind\": unknown failure kind \"bogus\" (expected "
       "\"core_column\", \"links\", \"switches\", \"controller_crash\" or "
       "\"control_partition\")"},
      {std::string{kHead} + traffic +
           " \"failures\": [{\"kind\": \"switches\", \"fail_at\": 0.5, "
           "\"fraction\": 0.1, \"role\": \"bogus\"}]}",
       "key \"role\": unknown switch role \"bogus\" (expected \"edge\", "
       "\"agg\" or \"core\")"},
      {std::string{kHead} + traffic +
           " \"conversion\": {\"to\": [\"global\", \"bogus\"]}}",
       "unknown Pod mode \"bogus\" (expected \"clos\", \"local\" or "
       "\"global\")"},
      {std::string{kHead} + traffic +
           " \"slos\": [{\"metric\": \"bogus\", \"max\": 1.0}]}",
       "key \"metric\": unknown SLO metric \"bogus\" (expected "
       "\"worst_fct_s\", \"p99_fct_s\", \"p50_fct_s\", \"mean_fct_s\" or "
       "\"completed_frac\")"},
      {std::string{kHead} + traffic + " \"sim\": {\"engine\": \"bogus\"}}",
       "key \"engine\": unknown engine \"bogus\" (expected \"fluid\", "
       "\"packet\", \"packet_sharded\" or \"autopilot\")"},
      {std::string{kHead} + traffic +
           " \"sim\": {\"engine\": \"fluid\", \"refresh\": \"bogus\"}}",
       "key \"refresh\": unknown refresh mode \"bogus\" (expected "
       "\"repair\", \"reroute\" or \"none\")"},
  };
  for (const Case& c : cases) {
    expect_parse_error(c.text, "bad.json:" +
                                   position_of(c.text, c.text.find("\"bogus\"")) +
                                   ": " + c.what);
  }
}

// ---- compile-stage rejections -----------------------------------------------
// Invalid embedded schedules and delay models must be rejected by
// compile_scenario — before any simulator runs — with the file name
// prefixed (FailureSchedule::validate / ConversionDelayModel::validate,
// invoked from the compiler).

void expect_compile_error(std::string_view text, std::string_view prefix) {
  const Scenario spec = parse_scenario(text, "bad.json");  // parses clean
  try {
    (void)compile_scenario(spec, "bad.json");
    FAIL() << "expected ScenarioError starting with: " << prefix;
  } catch (const ScenarioError& e) {
    EXPECT_EQ(std::string{e.what()}.substr(0, prefix.size()), prefix)
        << "actual: " << e.what();
  }
}

TEST(ScenarioCompile, InvalidDelayModelRejectedBeforeRun) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"ocs_s\": -0.1}}",
      "bad.json: conversion delay model rejected: ");
}

TEST(ScenarioCompile, OversubscribedConverterColumnsRejected) {
  // m + n exceeds the per-column converter budget for k = 4.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\", \"m\": 9, \"n\": 9},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json: topology rejected: ");
}

TEST(ScenarioCompile, CoreColumnBeyondCoresRejected) {
  // fat_tree k=4 has 4 cores; a 12-switch column cannot exist. The
  // schedule must be rejected at compile time, not mid-run.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"core_column\", \"count\": 12,"
      " \"fail_at\": 0.1}]}",
      "bad.json: failure schedule rejected: ");
}

TEST(ScenarioCompile, EmptySampledFailureSetRejected) {
  // fraction small enough to round to zero links on a k=4 fabric.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.0001,"
      " \"fail_at\": 0.1}]}",
      "bad.json: failure schedule rejected: ");
}

TEST(ScenarioCompile, TrafficGeneratorRejectionNamesEntry) {
  // fanin must stay below the server count (16 for k = 4); the generator's
  // invalid_argument surfaces as a compile diagnostic naming the entry.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"incast\", \"fanin\": 64}]}",
      "bad.json: traffic entry 0 (\"incast\") rejected: ");
}

TEST(ScenarioCompile, ShardedEngineRequiresPodLocalTraffic) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"packet_sharded\"}}",
      "bad.json: engine \"packet_sharded\" requires Pod-local traffic");
}

TEST(ScenarioCompile, AutopilotHorizonBounded) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"autopilot\", \"max_time_s\": 3600.0}}",
      "bad.json: engine \"autopilot\" requires max_time_s in (0, 600]");
}

// ---- control-plane fault grammar --------------------------------------------
// controller_crash / control_partition entries (PR: partition-tolerant
// hierarchy): acceptance of the full shape, and every structural rejection
// position-anchored at the offending entry.

TEST(ScenarioParse, ControlFaultsParse) {
  const Scenario s = parse_scenario(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"stage_checkpoints\": true},\n"
      " \"failures\": [\n"
      "  {\"kind\": \"controller_crash\", \"fail_at\": 0.5},\n"
      "  {\"kind\": \"control_partition\", \"fail_at\": 0.5,"
      " \"recover_at\": 2.0, \"first\": 1, \"count\": 2},\n"
      "  {\"kind\": \"links\", \"fraction\": 0.1, \"fail_at\": 0.2}]}",
      "ok.json");
  ASSERT_EQ(s.failures.size(), 3u);
  EXPECT_EQ(s.failures[0].kind, FailureKind::kControllerCrash);
  EXPECT_EQ(s.failures[0].fail_at, 0.5);
  EXPECT_EQ(s.failures[1].kind, FailureKind::kControlPartition);
  EXPECT_EQ(s.failures[1].recover_at, 2.0);
  EXPECT_EQ(s.failures[1].first, 1u);
  EXPECT_EQ(s.failures[1].count, 2u);
  // A never-healing partition: recover_at stays the down-forever sentinel.
  EXPECT_EQ(s.failures[1].flaps, 1u);
  (void)compile_scenario(s, "ok.json");  // compiles clean end to end
}

TEST(ScenarioParse, ControllerCrashAdmitsNoRecovery) {
  // The dead primary never comes back; the standby takes over instead.
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"controller_crash\", \"fail_at\": 0.5,"
      " \"recover_at\": 2.0}]}",
      "bad.json:5:74: key \"recover_at\" is not valid for failure kind "
      "\"controller_crash\"");
}

TEST(ScenarioParse, ControlFaultsRequireConversion) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"controller_crash\", \"fail_at\": 0.5}]}",
      "bad.json:4:15: failure kind \"controller_crash\" requires a "
      "\"conversion\" section");
}

TEST(ScenarioParse, ControlPartitionRequiresStagedConversion) {
  // The atomic baseline has no checkpoint to fall back on.
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"staged\": false},\n"
      " \"failures\": [{\"kind\": \"control_partition\", \"fail_at\": 0.5,"
      " \"count\": 2}]}",
      "bad.json:5:15: failure kind \"control_partition\" requires a staged "
      "conversion");
}

TEST(ScenarioParse, ControlPartitionPodRangeBounded) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"control_partition\", \"fail_at\": 0.5,"
      " \"first\": 3, \"count\": 2}]}",
      "bad.json:5:15: failure kind \"control_partition\": pod range [first, "
      "first + count) exceeds the topology's pods");
}

TEST(ScenarioParse, ControlPartitionRequiresCount) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"control_partition\", \"fail_at\": 0.5}]}",
      "bad.json:5:15: missing required key \"count\"");
}

TEST(ScenarioParse, ConversionScenariosRejectOtherFailureKinds) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"core_column\", \"fail_at\": 0.5,"
      " \"count\": 1}]}",
      "bad.json:5:15: conversion scenarios support failure kinds \"links\", "
      "\"controller_crash\" and \"control_partition\" only");
}

TEST(ScenarioParse, DropProbabilityRangeChecked) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"drop_probability\": 1.0}}",
      "bad.json:4:55: key \"drop_probability\": must lie in [0, 1)");
}

// The remaining channel knobs are parsed for type only; compile_scenario
// invokes ControlChannelOptions::validate() before any cell runs, so every
// out-of-range value lands with the channel's own message — pinned here,
// one per field.

TEST(ScenarioCompile, ChannelDelayRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_delay_s\": -0.1}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "delay_s must be >= 0");
}

TEST(ScenarioCompile, ChannelTimeoutRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_timeout_s\": 0.0}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "timeout_s must be > 0");
}

TEST(ScenarioCompile, ChannelBackoffRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_backoff\": 0.5}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "backoff must be >= 1");
}

TEST(ScenarioCompile, ChannelJitterRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_jitter\": 1.5}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "jitter must be in [0, 1]");
}

TEST(ScenarioCompile, ChannelMaxAttemptsRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_max_attempts\": 0}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "max_attempts must be >= 1");
}

TEST(ScenarioCompile, RepairRefreshSingleWindowOnly) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,"
      " \"fail_at\": 0.1, \"recover_at\": 0.2, \"flaps\": 2,"
      " \"period_s\": 0.5}],\n"
      " \"sim\": {\"engine\": \"fluid\", \"refresh\": \"repair\"}}",
      "bad.json: refresh \"repair\" supports a single failure window");
}

}  // namespace
}  // namespace flattree::scenario
