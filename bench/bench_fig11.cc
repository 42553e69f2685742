// Figure 11: application-level benefit of convertibility — Spark torrent
// broadcast (Word2Vec iterations) and Hadoop/Tez Sort shuffle on the
// testbed, under flat-tree Global / Local / Clos modes. Reported per mode:
// average data-flow read duration (per-transfer completion time including
// serialization overhead) and communication-phase duration.
//
// The workloads run through the fluid simulator on the exact testbed
// graphs (24 servers; master = server 0, workers = 1..23). The paper's
// shape: Global reduces read time ~10% and phase duration ~8-16% vs Clos,
// with Local in between and close to Global at this small scale.
#include <cstdio>
#include <string>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "topo/params.h"
#include "traffic/apps.h"

namespace flattree {
namespace {

struct AppResult {
  double read_s{0.0};
  double phase_s{0.0};
};

AppResult run_app(const Graph& g, const Workload& flows, std::uint32_t k) {
  FluidSimulator sim{g, bench::ksp_provider(g, k)};
  const auto results = sim.run(flows);
  double read_total = 0;
  double first_start = 1e18, last_finish = 0;
  std::size_t done = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].completed) continue;
    // End-to-end data read time = transfer + ser/deser overhead (§5.4).
    read_total += results[i].fct_s() + flows[i].dep_delay_s;
    first_start = std::min(first_start, results[i].start_s);
    last_finish = std::max(last_finish, results[i].finish_s);
    ++done;
  }
  AppResult r;
  r.read_s = read_total / static_cast<double>(done);
  r.phase_s = last_finish - first_start;
  return r;
}

void run() {
  const FlatTreeParams params = bench::testbed_params();
  const FlatTree tree{params};

  BroadcastParams bparams;
  bparams.master = 0;
  bparams.num_workers = 23;
  bparams.block_bytes = 256e6;
  bparams.iterations = 3;
  const Workload broadcast = spark_broadcast(bparams);

  ShuffleParams sparams;
  sparams.first_worker = 1;
  sparams.num_mappers = 23;
  sparams.num_reducers = 8;
  sparams.bytes_per_pair = 128e6;
  const Workload shuffle = hadoop_shuffle(sparams);

  bench::print_header(
      "Figure 11: Spark broadcast & Hadoop shuffle on the testbed",
      "avg data-flow read duration and communication-phase duration (s)\n"
      "per flat-tree mode; k = 4 paths + MPTCP as in §5.3.");

  bench::print_row({"mode", "bcast-read", "bcast-phase", "shuffle-read",
                    "shuffle-phase"},
                   14);
  double clos_vals[4] = {0, 0, 0, 0};
  for (const PodMode mode : {PodMode::kGlobal, PodMode::kLocal, PodMode::kClos}) {
    const Graph g = tree.realize_uniform(mode);
    const AppResult b = run_app(g, broadcast, 4);
    const AppResult s = run_app(g, shuffle, 4);
    if (mode == PodMode::kClos) {
      clos_vals[0] = b.read_s;
      clos_vals[1] = b.phase_s;
      clos_vals[2] = s.read_s;
      clos_vals[3] = s.phase_s;
    }
    bench::print_row({to_string(mode), bench::fmt(b.read_s, 3),
                      bench::fmt(b.phase_s, 3), bench::fmt(s.read_s, 3),
                      bench::fmt(s.phase_s, 3)},
                     14);
  }
  // Relative improvements of global mode over Clos.
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  const AppResult b = run_app(g, broadcast, 4);
  const AppResult s = run_app(g, shuffle, 4);
  std::printf("\nglobal vs clos: bcast read %+.1f%%, bcast phase %+.1f%%, "
              "shuffle read %+.1f%%, shuffle phase %+.1f%%\n",
              (b.read_s / clos_vals[0] - 1) * 100,
              (b.phase_s / clos_vals[1] - 1) * 100,
              (s.read_s / clos_vals[2] - 1) * 100,
              (s.phase_s / clos_vals[3] - 1) * 100);
  std::printf("paper: read -10%% / phase -16%% (bcast); read -10.5%% / "
              "phase -8%% (shuffle)\n");
}

}  // namespace
}  // namespace flattree

int main() {
  flattree::run();
  return 0;
}
