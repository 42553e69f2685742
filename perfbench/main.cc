// perfbench_driver: runs one workload of the repo benchmark through the
// flat-tree libraries' public APIs and prints its metrics. The last stdout
// line is the JSON result; see perfbench/README.md for the workloads, the
// metrics and how to run it (normally through perfbench/run.py).
//
//   perfbench_driver --workload control|closed_loop|packet --seed N
//                    --seconds S --trace 0|1 [--threads N]
//                    [--reference FILE] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off and
// scaled to a reference host speed (harness/speed.h).
// --trace 1 alternates untraced and traced rounds and prints the per-layer
// metrics: span self times and the layers' obs counters from the traced
// rounds, plus the tracing overhead against the untraced ones.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.h"
#include "harness/speed.h"
#include "harness/trace.h"
#include "obs/metrics.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

// Every round is set up afresh kSetupsPerRound times, the last set-up
// serving the round. setup_s is the median of all of them, so its samples
// spread over the whole run like the rounds do.
constexpr std::size_t kSetupsPerRound = 5;

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{-1.0};
  int trace{-1};
  std::size_t threads{0};  // 0 = min(4, hardware threads)
  std::string reference;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload control|closed_loop|packet "
               "--seed N --seconds S --trace 0|1\n"
               "       [--threads N] [--reference FILE] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 0);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "1") == 0 ? 1
                : std::strcmp(value, "0") == 0 ? 0
                                               : -1;
    } else if (flag == "--threads") {
      o.threads = std::strtoul(value, &end, 0);
    } else if (flag == "--reference") {
      o.reference = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown argument " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + flag);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds >= 0.0)) usage("--seconds is required");
  if (o.trace < 0) usage("--trace must be 0 or 1");
  return o;
}

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t,
                                              const flattree::obs::ObsSink&);

Factory factory_for(const std::string& name) {
  if (name == "control") return make_control;
  if (name == "closed_loop") return make_closed_loop;
  if (name == "packet") return make_packet;
  return nullptr;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// What one traced round measured.
struct TracedRound {
  double job_s{0.0};
  double attributed_frac{0.0};
  std::map<std::string, LayerTime> layers;
};

// The per-layer metrics of one traced round: span self times by layer
// call, and the layers' own deterministic counters.
std::vector<Metric> layer_metrics(const TracedRound& round,
                                  flattree::obs::MetricsRegistry& reg) {
  const auto self = [&](const char* name) {
    const auto it = round.layers.find(name);
    return it == round.layers.end() ? 0.0 : it->second.self_s;
  };
  const auto calls = [&](const char* name) {
    const auto it = round.layers.find(name);
    return it == round.layers.end() ? 0.0
                                    : static_cast<double>(it->second.calls);
  };
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const auto diagnostic = [&](const char* name) {
    return static_cast<double>(
        reg.counter(name, flattree::obs::MetricScope::kDiagnostic).value());
  };
  const double hits = counter("routing.ksp.cache_hits");
  const double misses = counter("routing.ksp.cache_misses");
  const double steps = counter("conv_exec.steps");
  // Every step's first attempt plus its retries.
  const double attempts = steps + counter("conv_exec.retries");
  const double reallocs = counter("fluid.reallocations");
  const double full = counter("fluid.realloc.full_resolves");
  const double events = counter("sim.events_processed");
  return {
      {"routing.ksp.lookup_s",
       self("routing.ksp.lookup") + self("routing.refresh"), "s"},
      {"routing.ksp.precompute_s", self("routing.ksp.precompute"), "s"},
      {"routing.ksp.pairs_computed", counter("routing.ksp.pairs_computed"),
       "count"},
      {"routing.ksp.cache_hits", hits, "count"},
      {"routing.ksp.cache_misses", misses, "count"},
      {"routing.ksp.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"routing.ksp.pairs_evicted", counter("routing.ksp.pairs_evicted"),
       "count"},
      {"control.compile_s", self("control.compile"), "s"},
      {"control.compile.calls", calls("control.compile"), "count"},
      {"control.realize_s", self("control.realize"), "s"},
      {"control.repair_s", self("control.repair"), "s"},
      {"control.repair.calls", calls("control.repair"), "count"},
      {"control.repair.pairs_evicted", counter("control.repair.pairs_evicted"),
       "count"},
      {"control.repair.rules_added", counter("control.repair.rules_added"),
       "count"},
      {"conv_exec.execute_s", self("conv_exec.execute"), "s"},
      {"conv_exec.steps", steps, "count"},
      {"conv_exec.step_attempts", attempts, "count"},
      {"conv_exec.steps_per_attempt", ratio(steps, attempts), "ratio"},
      {"conv_exec.replan.pairs", counter("conv_exec.replan.pairs"), "count"},
      {"conv_exec.invariant_checks", counter("conv_exec.invariant_checks"),
       "count"},
      {"autopilot.run_s", self("autopilot.run"), "s"},
      {"autopilot.epochs", counter("autopilot.epochs"), "count"},
      {"autopilot.decisions.convert", counter("autopilot.decisions.convert"),
       "count"},
      {"fluid.run_s", self("fluid.run"), "s"},
      {"fluid.reallocations", reallocs, "count"},
      {"fluid.realloc.full_resolves", full, "count"},
      {"fluid.incremental_frac", reallocs > 0.0 ? 1.0 - full / reallocs : 0.0,
       "ratio"},
      {"fluid.realloc.links_touched", counter("fluid.realloc.links_touched"),
       "count"},
      {"packet.setup_s", self("packet.setup"), "s"},
      {"packet.run_s", self("packet.run"), "s"},
      {"sim.events_processed", events, "count"},
      {"packet.events_per_s", ratio(events, self("packet.run")), "1/s"},
      {"sim.heap_max", reg.gauge("sim.heap_max").value(), "count"},
      {"packet.drops", counter("packet.drops"), "count"},
      {"packet.rto_timeouts", counter("packet.rto_timeouts"), "count"},
      {"exec.pool.tasks", diagnostic("exec.pool.tasks"), "count"},
      {"exec.pool.steals", diagnostic("exec.pool.steals"), "count"},
      {"trace.job_s", round.job_s, "s"},
      {"trace.attributed_frac", round.attributed_frac, "ratio"},
  };
}

// `job_s` is the round's wall time; every time is reported multiplied by
// `scale`, the round's speed scale.
TracedRound summarize_traced(const Tracer& tracer, std::uint32_t run,
                             double job_s, double scale) {
  TracedRound out;
  out.job_s = job_s * scale;
  out.layers = layer_times(tracer.spans(), run);
  for (auto& [name, t] : out.layers) {
    t.total_s *= scale;
    t.self_s *= scale;
    t.job_self_s *= scale;
  }
  const auto root = out.layers.find("job");
  const double unattributed =
      root == out.layers.end() ? out.job_s : root->second.self_s;
  out.attributed_frac = ratio(out.job_s - unattributed, out.job_s);
  return out;
}

void print_layer_table(const TracedRound& round) {
  std::printf("layer self time, traced round (job_s %.4f s, %.1f%% in named "
              "spans):\n",
              round.job_s, 100.0 * round.attributed_frac);
  std::printf("  %-24s %8s %12s %12s %12s\n", "span", "calls", "total_s",
              "self_s", "share of job");
  for (const auto& [name, t] : round.layers) {
    std::printf("  %-24s %8zu %12.6f %12.6f %11.1f%%%s\n",
                name == "job" ? "job (unattributed)" : name.c_str(), t.calls,
                t.total_s, t.self_s, 100.0 * ratio(t.job_self_s, round.job_s),
                t.job_self_s >= t.self_s ? ""
                : t.job_self_s > 0.0     ? "  (partly outside job_s)"
                                         : "  (outside job_s)");
  }
}

int run(const Options& opt) {
  const Factory factory = factory_for(opt.workload);
  if (factory == nullptr) usage("unknown workload " + opt.workload);
  const std::size_t threads =
      opt.threads != 0
          ? opt.threads
          : std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  const bool trace = opt.trace == 1;

  flattree::obs::MetricsRegistry registry;
  const flattree::obs::ObsSink observed =
      trace ? flattree::obs::ObsSink{&registry, nullptr}
            : flattree::obs::ObsSink{};
  const flattree::obs::ObsSink plain;

  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const auto set_up = [&](const flattree::obs::ObsSink& sink) {
    for (std::size_t i = 0; i < kSetupsPerRound; ++i) {
      workload.reset();
      const Clock::time_point start = Clock::now();
      workload = factory(opt.seed, sink);
      setup_s.push_back(since(start));
    }
  };
  std::vector<double> scale_by_round;
  flattree::exec::ThreadPool pool{threads};

  Tracer tracer;
  Ops ops;
  Samples samples;         // untraced rounds only
  Samples traced_samples;  // discarded: tracing perturbs latencies
  std::vector<double> job_s;       // scaled to the reference speed
  std::vector<double> wall_job_s;  // the same rounds' wall times
  std::vector<double> traced_job_s;
  std::vector<TracedRound> traced_rounds;
  std::vector<std::vector<Metric>> traced_metrics;
  const std::optional<std::string> reference =
      opt.reference.empty()
          ? std::nullopt
          : reference_digest(opt.reference, opt.workload, opt.seed);
  std::string first_digest;

  // A round starts only if it can end by the deadline, judged by the
  // longest round so far, so that a run takes about --seconds.
  const Clock::time_point measure_start = Clock::now();
  const std::uint32_t min_rounds = trace ? 2 : 1;
  double loop_before_s = loop_burst_s();
  double longest_round_s = 0.0;
  for (std::uint32_t r = 0;
       r < min_rounds ||
       since(measure_start) + longest_round_s < opt.seconds;
       ++r) {
    const Clock::time_point round_start = Clock::now();
    const std::size_t first_setup = setup_s.size();
    const Samples::Marks first_sample = samples.marks();
    const bool traced = trace && r % 2 == 1;
    const flattree::obs::ObsSink& sink = traced ? observed : plain;
    set_up(sink);
    if (traced) registry.reset();  // count the round, not its set-up
    pool.attach_obs(sink);
    tracer.set_recording(traced, r);
    tracer.reset_aside();
    Digest digest;
    RoundContext ctx{tracer, ops, digest,
                     traced ? traced_samples : samples, pool, sink};
    double wall = 0.0;
    {
      auto job = tracer.span("job");
      ops.attempt("round", [&] {
        workload->round(ctx);
        return true;
      });
      wall = job.close();
    }
    const double round_job_s = wall - tracer.aside_s();
    const std::string hex = digest.hex();
    if (r == 0) first_digest = hex;
    check_digest(ops, hex, reference, first_digest);

    // Every time the round took is reported at the reference speed.
    const double loop_after_s = loop_burst_s();
    const double scale = speed_scale(loop_before_s, loop_after_s);
    loop_before_s = loop_after_s;
    scale_by_round.push_back(scale);
    scale_from(setup_s, first_setup, scale);
    samples.scale_from(first_sample, scale);
    if (traced) {
      traced_job_s.push_back(round_job_s * scale);
      traced_rounds.push_back(summarize_traced(tracer, r, round_job_s, scale));
      traced_metrics.push_back(layer_metrics(traced_rounds.back(), registry));
    } else {
      job_s.push_back(round_job_s * scale);
      wall_job_s.push_back(round_job_s);
    }
    longest_round_s = std::max(longest_round_s, since(round_start));
  }
  tracer.set_recording(false, 0);
  pool.attach_obs(plain);

  const Quantile compile = percentile(samples.compile_ms, 50.0);
  const Quantile convert = percentile(samples.convert_ms, 50.0);
  const Quantile repair = percentile(samples.repair_ms, 50.0);
  std::printf("perfbench %s seed=%llu threads=%zu rounds=%zu untraced + %zu "
              "traced\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              threads, job_s.size(), traced_job_s.size());
  std::printf("  setup_s         %.6g  (median of %zu set-ups)\n",
              median(setup_s), setup_s.size());
  std::printf("  job_s           %.6f  (median of %zu untraced rounds; wall "
              "%.6f)\n",
              median(job_s), job_s.size(), median(wall_job_s));
  std::printf("  job_s by round ");
  for (const double j : job_s) std::printf(" %.4f", j);
  std::printf("\n  wall by round  ");
  for (const double j : wall_job_s) std::printf(" %.4f", j);
  std::printf("\n  speed scale    ");
  for (const double s : scale_by_round) std::printf(" %.3f", s);
  std::printf("\n");
  std::printf("  compile_p50_ms  %.4f  (n=%zu, p90 %.4f)\n", compile.value,
              compile.samples, percentile(samples.compile_ms, 90.0).value);
  std::printf("  convert_p50_ms  %.4f  (n=%zu, p90 %.4f)\n", convert.value,
              convert.samples, percentile(samples.convert_ms, 90.0).value);
  std::printf("  repair_p50_ms   %.4f  (n=%zu, p90 %.4f)\n", repair.value,
              repair.samples, percentile(samples.repair_ms, 90.0).value);
  std::printf("  peak_rss_mb     %.3f\n", peak_rss_mb());
  std::printf("  failed_ops_frac %.6g  (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(ops.failed()),
                    static_cast<double>(ops.attempted())),
              static_cast<unsigned long long>(ops.failed()),
              static_cast<unsigned long long>(ops.attempted()));
  std::printf("  digest          %s  (reference: %s)\n", first_digest.c_str(),
              reference ? (*reference == first_digest ? "match" : "MISMATCH")
                        : "none stored for this seed");

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"job_s", median(job_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    print_layer_table(traced_rounds.front());
    // Median over traced rounds, metric by metric.
    for (std::size_t m = 0; m < traced_metrics.front().size(); ++m) {
      std::vector<double> values;
      for (const auto& round : traced_metrics) values.push_back(round[m].value);
      metrics.push_back({traced_metrics.front()[m].name, median(values),
                         traced_metrics.front()[m].unit});
    }
    const double overhead = median(traced_job_s) - median(job_s);
    std::printf("  tracing overhead: traced job_s %.6f - untraced %.6f = "
                "%.6f s\n",
                median(traced_job_s), median(job_s), overhead);
    metrics.push_back({"trace.overhead_s", overhead, "s"});
    // Operation latencies from the run's untraced rounds.
    metrics.push_back({"control.compile_p50_ms", compile.value, "ms"});
    metrics.push_back({"conv_exec.convert_p50_ms", convert.value, "ms"});
    metrics.push_back({"control.repair_p50_ms", repair.value, "ms"});
    if (!opt.trace_out.empty()) {
      std::ofstream out{opt.trace_out};
      out << tracer.chrome_trace_json();
      std::printf("  spans: %zu written to %s\n", tracer.spans().size(),
                  opt.trace_out.c_str());
    }
  }
  std::printf("%s\n", result_json(ops.failed() == 0, ops.attempted(),
                                  ops.failed(), metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
