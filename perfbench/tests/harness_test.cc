// Tests of the benchmark's own harness: statistics, span self time, the
// speed scale and the accounting that turns failed checks and tampered
// digests into failed operations. Run through perfbench/selftest.py (or
// directly: the binary exits non-zero on the first failing check).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/speed.h"
#include "harness/trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (false)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using perfbench::SpanKind;
using perfbench::SpanRecord;

void percentile_reports_value_and_sample_count() {
  const perfbench::Quantile none = perfbench::percentile({}, 50.0);
  EXPECT(none.samples == 0 && none.value == 0.0);
  const perfbench::Quantile odd = perfbench::percentile({3.0, 1.0, 2.0}, 50.0);
  EXPECT(odd.samples == 3 && near(odd.value, 2.0));
  const perfbench::Quantile even =
      perfbench::percentile({4.0, 1.0, 3.0, 2.0}, 50.0);
  EXPECT(even.samples == 4 && near(even.value, 2.5));
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  EXPECT(near(perfbench::percentile(eleven, 90.0).value, 10.0));
  EXPECT(near(perfbench::percentile(eleven, 0.0).value, 1.0));
  EXPECT(near(perfbench::percentile(eleven, 100.0).value, 11.0));
  EXPECT(near(perfbench::percentile({5.0}, 99.0).value, 5.0));
}

SpanRecord rec(double start, double end, int parent) {
  return SpanRecord{std::string{"span"}, start, end, parent};
}

void self_time_subtracts_union_of_direct_children() {
  // root [0,10] has children a [1,4] and b [3,6] (overlapping: their union
  // covers 5 s) and c [9,12] (clipped to the root at 10). a has a child
  // [2,3]: grandchildren reduce only their own parent.
  const std::vector<SpanRecord> spans = {rec(0, 10, -1), rec(1, 4, 0),
                                         rec(3, 6, 0),   rec(9, 12, 0),
                                         rec(2, 3, 1)};
  const std::vector<double> self = perfbench::self_times(spans);
  EXPECT(near(self[0], 10.0 - 6.0));
  EXPECT(near(self[1], 3.0 - 1.0));
  EXPECT(near(self[2], 3.0));
  EXPECT(near(self[3], 3.0));
  EXPECT(near(self[4], 1.0));
}

void tracer_records_nesting_and_separates_aside_time() {
  perfbench::Tracer tracer;
  {
    auto ignored = tracer.span("untraced");  // not recording: timed only
    EXPECT(ignored.close() >= 0.0);
  }
  EXPECT(tracer.spans().empty());
  tracer.set_recording(true, 7);
  {
    auto job = tracer.span("job");
    {
      auto layer = tracer.span("layer.call");
      auto inner = tracer.span("layer.inner");
    }
    auto check = tracer.span("check.out", SpanKind::kAside);
    auto nested = tracer.span("layer.call");  // under the aside span
  }
  const auto& spans = tracer.spans();
  EXPECT(spans.size() == 5);
  EXPECT(spans[0].parent == -1 && spans[1].parent == 0 &&
         spans[2].parent == 1 && spans[3].parent == 0 &&
         spans[4].parent == 3);
  for (const SpanRecord& s : spans) EXPECT(s.run == 7 && s.end_s >= s.start_s);
  // Only the outermost aside span accumulates: nested work is not counted
  // twice.
  EXPECT(near(tracer.aside_s(), spans[3].end_s - spans[3].start_s));
  const auto layers = perfbench::layer_times(spans, 7);
  const perfbench::LayerTime& call = layers.at("layer.call");
  EXPECT(call.calls == 2);
  const double nested_self = spans[4].end_s - spans[4].start_s;
  EXPECT(near(call.job_self_s, call.self_s - nested_self));
  EXPECT(perfbench::layer_times(spans, 8).empty());
  const std::string json = tracer.chrome_trace_json();
  EXPECT(json.find("\"name\":\"layer.inner\"") != std::string::npos);
  EXPECT(json.find("\"parent\":1") != std::string::npos);
}

void failed_checks_and_exceptions_count_as_failed_operations() {
  perfbench::Ops ops;
  EXPECT(ops.check(true, "ok"));
  EXPECT(!ops.check(false, "a failed check"));
  EXPECT(!ops.attempt("a throwing call", []() -> bool {
    throw std::runtime_error("boom");
  }));
  EXPECT(ops.attempt("a passing call", [] { return true; }));
  ops.tally(10, 2, "flows");
  EXPECT(ops.attempted() == 14);
  EXPECT(ops.failed() == 4);
}

void tampered_digest_counts_as_failed_operation() {
  perfbench::Digest digest;
  digest.add(std::uint64_t{42});
  digest.add(1.5);
  digest.add("route");
  const std::string good = digest.hex();
  EXPECT(good.size() == 16);
  perfbench::Digest other;
  other.add(std::uint64_t{42});
  other.add(1.5000000000000002);  // one ulp: the digest must see it
  other.add("route");
  EXPECT(other.hex() != good);

  const std::string path = "harness_test_digests.txt";
  {
    std::ofstream out{path};
    out << "# workload seed digest\n"
        << "control 3 " << good << "\n"
        << "packet 3 0000000000000000\n";
  }
  const auto stored = perfbench::reference_digest(path, "control", 3);
  EXPECT(stored && *stored == good);
  EXPECT(!perfbench::reference_digest(path, "control", 4));
  const auto tampered = perfbench::reference_digest(path, "packet", 3);
  EXPECT(tampered && *tampered != good);
  std::remove(path.c_str());

  perfbench::Ops ops;
  EXPECT(perfbench::check_digest(ops, good, stored, good));
  EXPECT(!perfbench::check_digest(ops, good, tampered, good));
  EXPECT(perfbench::check_digest(ops, good, std::nullopt, good));
  EXPECT(!perfbench::check_digest(ops, good, std::nullopt, other.hex()));
  EXPECT(ops.attempted() == 4 && ops.failed() == 2);
}

void result_line_has_exact_keys_and_rejects_non_finite() {
  const std::string line = perfbench::result_json(
      true, 12, 0, {{"job_s", 1.25, "s"}, {"compile_p50_ms", 0.1, "ms"}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"job_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"compile_p50_ms\": "
         "{\"value\": 0.10000000000000001, \"unit\": \"ms\"}}}");
  bool threw = false;
  try {
    (void)perfbench::result_json(true, 1, 0, {{"x", std::nan(""), "s"}});
  } catch (const std::domain_error&) {
    threw = true;
  }
  EXPECT(threw);
}

void speed_scale_maps_loop_time_to_reference_speed() {
  const double ref = perfbench::kReferenceBurstS;
  EXPECT(near(perfbench::speed_scale(ref, ref), 1.0));
  // Loop twice as slow around the round: its times are halved.
  EXPECT(near(perfbench::speed_scale(1.5 * ref, 2.5 * ref), 0.5));
  bool threw = false;
  try {
    (void)perfbench::speed_scale(0.0, 0.0);
  } catch (const std::domain_error&) {
    threw = true;
  }
  EXPECT(threw);
  std::vector<double> times{1.0, 2.0, 4.0};
  perfbench::scale_from(times, 1, 0.5);
  EXPECT(near(times[0], 1.0) && near(times[1], 1.0) && near(times[2], 2.0));
  EXPECT(perfbench::loop_burst_s() > 0.0);
}

}  // namespace

int main() {
  percentile_reports_value_and_sample_count();
  self_time_subtracts_union_of_direct_children();
  tracer_records_nesting_and_separates_aside_time();
  failed_checks_and_exceptions_count_as_failed_operations();
  tampered_digest_counts_as_failed_operation();
  result_line_has_exact_keys_and_rejects_non_finite();
  speed_scale_maps_loop_time_to_reference_speed();
  if (failures > 0) {
    std::fprintf(stderr, "harness_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("harness_test: all checks passed\n");
  return 0;
}
