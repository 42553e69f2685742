// The shared JSON module (obs/json.h) on its own: the one escape rule, the
// one number format, the atomic file write, and the positioned reader's
// nesting bound and diagnostics. The writers built on it are byte-pinned
// in test_json_pin.cc; the scenario grammar's diagnostics in
// test_scenario_parse.cc.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace flattree::obs::json {
namespace {

std::string string_of(std::string_view s) {
  std::string out;
  append_string(out, s);
  return out;
}

template <typename T>
std::string number_of(T v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string parse_error(std::string_view text) {
  try {
    (void)parse(text, "t.json");
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonWrite, OneEscapeRule) {
  EXPECT_EQ(string_of(""), "\"\"");
  EXPECT_EQ(string_of("a\"b\\c/d"), "\"a\\\"b\\\\c/d\"");
  EXPECT_EQ(string_of("\n\t\r"), "\"\\n\\t\\r\"");
  EXPECT_EQ(string_of(std::string_view{"\x00\x01\x08\x0c\x1f", 5}),
            "\"\\u0000\\u0001\\u0008\\u000c\\u001f\"");
  // DEL and UTF-8 bytes pass through verbatim.
  EXPECT_EQ(string_of("\x7f" "caf\xc3\xa9"), "\"\x7f" "caf\xc3\xa9\"");
}

TEST(JsonWrite, OneNumberFormat) {
  EXPECT_EQ(number_of(std::int64_t{-42}), "-42");
  EXPECT_EQ(number_of(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(number_of(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(number_of(0.1), "0.1");
  EXPECT_EQ(number_of(1e21), "1e+21");
  EXPECT_EQ(number_of(-0.0), "-0");
  EXPECT_EQ(number_of(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number_of(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number_of(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWrite, NumbersRoundTripThroughTheReader) {
  for (const double v : {0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                         -2.5e-7, 1e6}) {
    const Node node = parse(number_of(v), "n.json");
    ASSERT_EQ(node.kind, Node::Kind::kNumber);
    EXPECT_EQ(node.number, v);
  }
}

TEST(JsonWrite, WriteFileIsAtomicAndReportsFailure) {
  const std::string path = ::testing::TempDir() + "json_write.json";
  std::string error;
  ASSERT_TRUE(write_file(path, "{\"a\":1}\n", &error)) << error;
  std::ifstream in{path, std::ios::binary};
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{\"a\":1}\n");
  // No temp file is left behind on success.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
  EXPECT_FALSE(write_file("/nonexistent-dir/x.json", "{}", &error));
  EXPECT_EQ(error, "cannot open /nonexistent-dir/x.json.tmp");
}

TEST(JsonRead, NodesCarryPositions) {
  const Node root = parse("{\n  \"a\": [1, \"x\"],\n  \"b\": null\n}", "t");
  ASSERT_EQ(root.kind, Node::Kind::kObject);
  const Node* a = root.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->line, 2u);
  EXPECT_EQ(a->column, 8u);
  ASSERT_EQ(a->items.size(), 2u);
  EXPECT_EQ(a->items[1].string, "x");
  EXPECT_EQ(root.find("b")->kind_name(), std::string{"null"});
  EXPECT_EQ(root.find("c"), nullptr);
}

TEST(JsonRead, NestingBoundIsExact) {
  const std::string ok = std::string(kMaxDepth, '[') +
                         std::string(kMaxDepth, ']');
  EXPECT_NO_THROW((void)parse(ok, "t.json"));
  EXPECT_EQ(parse_error(std::string(kMaxDepth + 1, '[')),
            "t.json:1:257: arrays and objects nested deeper than 256 levels");
  // Objects count toward the same bound.
  std::string objects;
  for (std::uint32_t i = 0; i <= kMaxDepth; ++i) objects += "{\"k\":";
  EXPECT_EQ(parse_error(objects),
            "t.json:1:1281: arrays and objects nested deeper than 256 "
            "levels");
}

// Syntax, duplicate-key and trailing-content diagnostics are pinned through
// the scenario grammar in test_scenario_parse.cc; these are the rest.
TEST(JsonRead, Diagnostics) {
  EXPECT_EQ(parse_error(""), "t.json:1:1: unexpected end of input");
  EXPECT_EQ(parse_error("[1,]"), "t.json:1:4: unexpected character ']'");
  EXPECT_EQ(parse_error("\"\\u00e9\""),
            "t.json:1:8: non-ASCII \\u escape (scenario files are ASCII)");
  EXPECT_EQ(parse_error("[1.]"),
            "t.json:1:4: malformed number (digit required after '.')");
}

}  // namespace
}  // namespace flattree::obs::json
