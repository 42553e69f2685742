// Figure 10 (+ §5.3): run-time topology conversion on the 20-switch /
// 24-server testbed network. Every server sends iPerf-style persistent
// MPTCP flows (k = 4) to its same-index counterparts in the other three
// Pods; we report the summed goodput in 0.5 s bins while the controller
// converts Clos -> Global -> Local at run time, with the conversion
// blackout taken from the Table 3 delay model.
//
// Scaling note: links run at 1 Gb/s instead of 10 Gb/s to keep the
// packet-level event count tractable; throughputs scale linearly, so the
// paper's 145 Gb/s (Clos/local) and 185 Gb/s (global) correspond to 14.5
// and 18.5 Gb/s here, and the +27.6% core-bandwidth gain carries over. The
// timeline is compressed (6 s per mode instead of ~100 s).
#include <cstdio>
#include <vector>

#include "bench/util.h"
#include "control/controller.h"
#include "sim/packet.h"
#include "topo/params.h"

namespace flattree {
namespace {

void run(exec::RunnerOptions runner_options) {
  exec::ExperimentRunner runner{std::move(runner_options)};
  FlatTreeParams params = bench::testbed_params();
  params.clos.link_bps = 1e9;  // scaled from 10G (see header note)
  ControllerOptions options;
  options.k_global = options.k_local = options.k_clos = 4;
  const Controller ctl{FlatTree{params}, options};

  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const CompiledMode local = ctl.compile_uniform(PodMode::kLocal);

  bench::print_header(
      "Figure 10: testbed core bandwidth across run-time conversions",
      "Clos [0,6s) -> Global [6,12s) -> Local [12,18s); 0.5 s bins;\n"
      "1 Gb/s links (x10 for the paper's 10 Gb/s numbers).");

  PacketSim sim;
  sim.attach_obs(runner.obs());
  sim.set_network(clos.graph());
  // iPerf pattern: server s -> same index in each other pod (6 per pod).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t s = 0; s < 24; ++s) {
    for (std::uint32_t stride = 1; stride < 4; ++stride) {
      const std::uint32_t dst = (s + 6 * stride) % 24;
      pairs.emplace_back(s, dst);
      sim.add_flow(s, dst, 0, 0.0,
                   clos.paths().server_paths(NodeId{s}, NodeId{dst}));
    }
  }

  const auto convert_to = [&](const CompiledMode& from,
                              const CompiledMode& to) {
    const ConversionReport report = ctl.plan_conversion(from, to);
    std::printf("# conversion: %u converters, %llu rules del, %llu add, "
                "blackout %.0f ms\n",
                report.converters_changed,
                static_cast<unsigned long long>(report.rules_deleted),
                static_cast<unsigned long long>(report.rules_added),
                report.total_s() * 1e3);
    sim.apply_conversion(
        to.graph(),
        [&](std::uint32_t flow) {
          return to.paths().server_paths(NodeId{pairs[flow].first},
                                         NodeId{pairs[flow].second});
        },
        report.total_s());
  };

  std::printf("\ntime_s  total_goodput_gbps  mode\n");
  std::uint64_t last_bytes = 0;
  double segment_sum[3] = {0, 0, 0};
  int segment_bins[3] = {0, 0, 0};
  const char* mode_name[3] = {"clos", "global", "local"};
  for (int bin = 1; bin <= 36; ++bin) {
    const double t = bin * 0.5;
    if (bin == 13) convert_to(clos, global);   // at 6.0 s
    if (bin == 25) convert_to(global, local);  // at 12.0 s
    sim.run_until(t);
    const std::uint64_t bytes = sim.total_bytes_acked();
    const double gbps = static_cast<double>(bytes - last_bytes) * 8 / 0.5 / 1e9;
    last_bytes = bytes;
    const int segment = (bin - 1) / 12;
    // Skip the first 2.5 s of each segment (ramp) in the segment average.
    if ((bin - 1) % 12 >= 5) {
      segment_sum[segment] += gbps;
      ++segment_bins[segment];
    }
    std::printf("%5.1f   %8.2f            %s\n", t, gbps, mode_name[segment]);
    exec::ResultRow row;
    row.set("time_s", t)
        .set("goodput_gbps", gbps)
        .set("mode", mode_name[segment]);
    runner.add_row(std::move(row));
  }

  std::printf("\nsteady-state averages (Gb/s at 1G links; x10 for paper):\n");
  for (int s = 0; s < 3; ++s) {
    std::printf("  %-7s %.2f\n", mode_name[s],
                segment_sum[s] / segment_bins[s]);
  }
  const double clos_avg = segment_sum[0] / segment_bins[0];
  const double global_avg = segment_sum[1] / segment_bins[1];
  std::printf("  global/clos gain: %+.1f%%  (paper: +27.6%%)\n",
              (global_avg / clos_avg - 1) * 100);
  std::printf("  oversubscribed Clos bound: 24 x 1G / 1.5 = 16.00 Gb/s\n");
  runner.add_meta("clos_avg_gbps", clos_avg);
  runner.add_meta("global_avg_gbps", global_avg);
  runner.add_meta("local_avg_gbps", segment_sum[2] / segment_bins[2]);
  runner.add_meta("global_over_clos_gain_pct",
                  (global_avg / clos_avg - 1) * 100);
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(
      flattree::bench::parse_runner_options("fig10", argc, argv, 20170821));
  return 0;
}
