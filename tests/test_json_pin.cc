// Byte pins for every JSON writer in the tree. The bench goldens run with
// observability detached, so without this file nothing would pin the bytes
// of the metrics export, the Chrome trace or the corner cases of the BENCH
// report writer (control characters, non-finite doubles, integer extremes).
// It also pins canonical_json of every checked-in scenario against
// tests/data/canonical/. Each writer keeps its own layout; these strings
// are the contract that any change to the shared escaping or number
// formatting must leave intact.
//
// Deliberately not pinned: control characters in trace, metric or key names
// and non-finite trace timestamps. Names are identifiers and trace times
// are simulated or logical ticks, so those inputs do not occur.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exec/results.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/spec.h"

namespace flattree {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Counters (including the uint64 maximum), finite and non-finite gauges, a
// populated and an empty histogram, and diagnostic-scope entries of each
// kind the runner prints to stderr only.
void fill_registry(obs::MetricsRegistry& reg) {
  reg.counter("a.count").add(42);
  reg.counter("a.max").add(std::numeric_limits<std::uint64_t>::max());
  reg.counter("a.zero");
  reg.gauge("g.frac").set(0.1);
  reg.gauge("g.neg").set(-2.5e-7);
  reg.gauge("g.big").set(1e21);
  reg.gauge("g.nan").set(kNaN);
  reg.gauge("g.inf").set(kInf);
  reg.gauge("g.neg_inf").set(-kInf);
  obs::Histogram& lat = reg.histogram("h.lat", {0.001, 0.01, 1.0, 1e3});
  lat.record(0.0005);
  lat.record(0.01);
  lat.record(0.5);
  lat.record(2e6);
  reg.histogram("h.empty", {1.0, 2.0});
  reg.counter("d.steals", obs::MetricScope::kDiagnostic).add(7);
  reg.gauge("d.wall_s", obs::MetricScope::kDiagnostic).set(3.25);
}

// Spans, instants and logical-tick marks, with and without an argument,
// on several tracks; names carry '"' and '\' (the only characters the
// trace writer has ever had to escape in practice) and UTF-8 bytes.
void fill_tracer(obs::EventTracer& tracer) {
  tracer.span("sim", "flow", 1.0, 0.5, 3, 1024);
  tracer.span("sim", "blackout \"pod 2\"", 0.25, 1e-3, 0);
  tracer.instant("sim", "failure", 2.0);
  tracer.instant("sim\\net", "path\\to", 1e-7, 7, -5);
  tracer.mark("control", "phase_a");
  tracer.mark("control", "phase_b", 4294967295u, 0);
  tracer.instant("ctl", "caf\xc3\xa9", 3.0, 1, std::int64_t{1} << 40);
}

// Meta and rows over every JsonValue kind: null, bools, signed/unsigned
// extremes, shortest-round-trip and non-finite doubles, strings with
// quotes, backslashes, control characters and UTF-8, plus a metrics block.
exec::BenchReport make_report() {
  exec::BenchReport report;
  report.bench = "pin \"bench\"";
  report.seed = std::numeric_limits<std::uint64_t>::max();
  report.meta.emplace_back("k", exec::JsonValue{std::int64_t{8}});
  report.meta.emplace_back("none", exec::JsonValue{});
  report.meta.emplace_back("note", exec::JsonValue{"tab\there\nnext"});
  exec::ResultRow a;
  a.set("label", "a\"b\\c")
      .set("ctl", std::string{"\x01\x1f\r\b\f", 5})
      .set("utf8", "caf\xc3\xa9")
      .set("empty", "")
      .set("ratio", 0.1)
      .set("third", 1.0 / 3.0)
      .set("tiny", 5e-324)
      .set("huge", 1.7976931348623157e308)
      .set("neg_zero", -0.0)
      .set("whole", 1e6)
      .set("nan", kNaN)
      .set("inf", kInf)
      .set("neg_inf", -kInf);
  exec::ResultRow b;
  b.set("i_min", std::numeric_limits<std::int64_t>::min())
      .set("i_neg", -1)
      .set("u32", std::numeric_limits<std::uint32_t>::max())
      .set("u64", std::numeric_limits<std::uint64_t>::max())
      .set("yes", true)
      .set("no", false);
  report.rows.push_back(a);
  report.rows.push_back(b);
  obs::MetricsRegistry reg;
  fill_registry(reg);
  report.metrics_json = reg.metrics_object_json();
  return report;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

constexpr std::string_view kMetricsObject =
    R"json({
  "a.count":{"type":"counter","value":42},
  "a.max":{"type":"counter","value":18446744073709551615},
  "a.zero":{"type":"counter","value":0},
  "g.big":{"type":"gauge","value":1e+21},
  "g.frac":{"type":"gauge","value":0.1},
  "g.inf":{"type":"gauge","value":null},
  "g.nan":{"type":"gauge","value":null},
  "g.neg":{"type":"gauge","value":-2.5e-07},
  "g.neg_inf":{"type":"gauge","value":null},
  "h.empty":{"type":"histogram","count":0,"bounds":[1,2],"counts":[0,0,0]},
  "h.lat":{"type":"histogram","count":4,"min":5e-04,"max":2e+06,"bounds":[0.001,0.01,1,1000],"counts":[1,1,1,0,1]}
})json";

constexpr std::string_view kMetricsObjectDiagnostic =
    R"json({
  "a.count":{"type":"counter","value":42},
  "a.max":{"type":"counter","value":18446744073709551615},
  "a.zero":{"type":"counter","value":0},
  "d.steals":{"type":"counter","value":7},
  "d.wall_s":{"type":"gauge","value":3.25},
  "g.big":{"type":"gauge","value":1e+21},
  "g.frac":{"type":"gauge","value":0.1},
  "g.inf":{"type":"gauge","value":null},
  "g.nan":{"type":"gauge","value":null},
  "g.neg":{"type":"gauge","value":-2.5e-07},
  "g.neg_inf":{"type":"gauge","value":null},
  "h.empty":{"type":"histogram","count":0,"bounds":[1,2],"counts":[0,0,0]},
  "h.lat":{"type":"histogram","count":4,"min":5e-04,"max":2e+06,"bounds":[0.001,0.01,1,1000],"counts":[1,1,1,0,1]}
})json";

constexpr std::string_view kMetricsFile =
    R"json({"metrics":{
  "a.count":{"type":"counter","value":42},
  "a.max":{"type":"counter","value":18446744073709551615},
  "a.zero":{"type":"counter","value":0},
  "g.big":{"type":"gauge","value":1e+21},
  "g.frac":{"type":"gauge","value":0.1},
  "g.inf":{"type":"gauge","value":null},
  "g.nan":{"type":"gauge","value":null},
  "g.neg":{"type":"gauge","value":-2.5e-07},
  "g.neg_inf":{"type":"gauge","value":null},
  "h.empty":{"type":"histogram","count":0,"bounds":[1,2],"counts":[0,0,0]},
  "h.lat":{"type":"histogram","count":4,"min":5e-04,"max":2e+06,"bounds":[0.001,0.01,1,1000],"counts":[1,1,1,0,1]}
}}
)json";

constexpr std::string_view kMetricsText =
    R"json(a.count = 42
a.max = 18446744073709551615
a.zero = 0
d.steals [diagnostic] = 7
d.wall_s [diagnostic] = 3.25
g.big = 1e+21
g.frac = 0.1
g.inf = null
g.nan = null
g.neg = -2.5e-07
g.neg_inf = null
h.empty = count 0
h.lat = count 4, min 5e-04, max 2e+06
)json";

constexpr std::string_view kChromeTrace =
    R"json({"traceEvents":[
{"name":"flow","cat":"sim","ph":"X","ts":1e+06,"dur":5e+05,"pid":0,"tid":3,"args":{"value":1024}},
{"name":"blackout \"pod 2\"","cat":"sim","ph":"X","ts":250000,"dur":1000,"pid":0,"tid":0},
{"name":"failure","cat":"sim","ph":"i","ts":2e+06,"pid":0,"tid":0,"s":"g"},
{"name":"path\\to","cat":"sim\\net","ph":"i","ts":0.09999999999999999,"pid":0,"tid":7,"args":{"value":-5}},
{"name":"phase_a","cat":"control","ph":"i","ts":0,"pid":0,"tid":0,"s":"g"},
{"name":"phase_b","cat":"control","ph":"i","ts":1,"pid":0,"tid":4294967295,"args":{"value":0}},
{"name":"café","cat":"ctl","ph":"i","ts":3e+06,"pid":0,"tid":1,"args":{"value":1099511627776}}
]}
)json";

constexpr std::string_view kTraceText =
    R"json(control/phase_a: 1 event
control/phase_b: 1 event
ctl/café: 1 event
sim/blackout "pod 2": 1 event, 1.000 ms spanned
sim/failure: 1 event
sim/flow: 1 event, 500.000 ms spanned
sim\net/path\to: 1 event
)json";

constexpr std::string_view kReport =
    R"json({"bench":"pin \"bench\"","seed":18446744073709551615,"k":8,"none":null,"note":"tab\there\nnext","metrics":{
  "a.count":{"type":"counter","value":42},
  "a.max":{"type":"counter","value":18446744073709551615},
  "a.zero":{"type":"counter","value":0},
  "g.big":{"type":"gauge","value":1e+21},
  "g.frac":{"type":"gauge","value":0.1},
  "g.inf":{"type":"gauge","value":null},
  "g.nan":{"type":"gauge","value":null},
  "g.neg":{"type":"gauge","value":-2.5e-07},
  "g.neg_inf":{"type":"gauge","value":null},
  "h.empty":{"type":"histogram","count":0,"bounds":[1,2],"counts":[0,0,0]},
  "h.lat":{"type":"histogram","count":4,"min":5e-04,"max":2e+06,"bounds":[0.001,0.01,1,1000],"counts":[1,1,1,0,1]}
},"results":[
  {"label":"a\"b\\c","ctl":"\u0001\u001f\r\u0008\u000c","utf8":"café","empty":"","ratio":0.1,"third":0.3333333333333333,"tiny":5e-324,"huge":1.7976931348623157e+308,"neg_zero":-0,"whole":1e+06,"nan":null,"inf":null,"neg_inf":null},
  {"i_min":-9223372036854775808,"i_neg":-1,"u32":4294967295,"u64":18446744073709551615,"yes":true,"no":false}
]}
)json";

constexpr std::string_view kEmptyReport =
    R"json({"bench":"empty","seed":0,"results":[]}
)json";

TEST(JsonPin, MetricsExport) {
  obs::MetricsRegistry reg;
  fill_registry(reg);
  EXPECT_EQ(reg.metrics_object_json(), kMetricsObject);
  EXPECT_EQ(reg.metrics_object_json(/*include_diagnostic=*/true),
            kMetricsObjectDiagnostic);
  EXPECT_EQ(reg.to_json(), kMetricsFile);
  EXPECT_EQ(reg.text_summary(), kMetricsText);
}

TEST(JsonPin, ChromeTrace) {
  obs::EventTracer tracer;
  fill_tracer(tracer);
  EXPECT_EQ(tracer.chrome_trace_json(), kChromeTrace);
  EXPECT_EQ(tracer.text_summary(), kTraceText);
  const std::string path = ::testing::TempDir() + "pin_trace.json";
  ASSERT_TRUE(tracer.write_chrome_trace(path));
  EXPECT_EQ(read_file(path), kChromeTrace);
  std::remove(path.c_str());
}

TEST(JsonPin, BenchReport) {
  const exec::BenchReport report = make_report();
  EXPECT_EQ(report.to_json(), kReport);
  exec::BenchReport empty;
  empty.bench = "empty";
  EXPECT_EQ(empty.to_json(), kEmptyReport);
  const std::string path = ::testing::TempDir() + "BENCH_pin.json";
  ASSERT_TRUE(exec::write_report(report, path));
  EXPECT_EQ(read_file(path), kReport);
  std::remove(path.c_str());
}

// Every scenarios/*.json has a pinned canonical form and vice versa.
TEST(JsonPin, CanonicalScenarios) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator{SCENARIO_DIR}) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::size_t pinned = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator{CANONICAL_DIR}) {
    pinned += entry.path().extension() == ".json" ? 1 : 0;
  }
  ASSERT_FALSE(files.empty());
  EXPECT_EQ(files.size(), pinned);
  for (const auto& file : files) {
    const std::string expected = read_file(
        std::string{CANONICAL_DIR} + "/" + file.filename().string());
    ASSERT_FALSE(expected.empty()) << "no canonical pin for " << file;
    EXPECT_EQ(scenario::canonical_json(
                  scenario::parse_scenario_file(file.string())),
              expected)
        << file;
  }
}

}  // namespace
}  // namespace flattree
