// §4.2 network-state accounting: per-switch OpenFlow rule counts under
// naive per-server-pair routing, ingress/egress prefix aggregation, and
// MAC-encoded source routing — on the testbed (exact, all pairs) and on
// topo-1 (sampled pairs, with the closed-form estimates the paper quotes:
// n^2 k L / N naive, S^2 k L / N aggregated, S x k + D x C source-routed).
#include <cstdio>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "net/stats.h"
#include "routing/rules.h"
#include "routing/source_routing.h"
#include "topo/params.h"

namespace flattree {
namespace {

void report(const char* label, const Graph& g, std::uint32_t k,
            std::size_t pair_stride) {
  PathCache cache{g, k};
  auto pairs = all_ingress_pairs(g);
  if (pair_stride > 1) {
    std::vector<SwitchPair> sampled;
    for (std::size_t i = 0; i < pairs.size(); i += pair_stride) {
      sampled.push_back(pairs[i]);
    }
    pairs = std::move(sampled);
  }
  const PortMap ports{g};
  const auto stats = compute_path_length_stats(g);
  const StateCounts counts =
      analyze_states(g, cache, pairs, ports.max_port_count(), stats.diameter);

  std::printf("\n--- %s (k=%u, %zu ingress pairs%s) ---\n", label, k,
              pairs.size(), pair_stride > 1 ? ", sampled" : "");
  std::printf("  avg path length L = %.2f, diameter %u, max ports %zu\n",
              counts.avg_path_length, stats.diameter, ports.max_port_count());
  std::printf("  naive      : avg %12.0f  max %12llu   (formula n^2kL/N = %.0f)\n",
              counts.naive_avg,
              static_cast<unsigned long long>(counts.naive_max),
              counts.formula_naive_avg);
  std::printf("  aggregated : avg %12.0f  max %12llu   (formula S^2kL/N = %.0f)\n",
              counts.aggregated_avg,
              static_cast<unsigned long long>(counts.aggregated_max),
              counts.formula_aggregated_avg);
  std::printf("  src-routed : ingress max %llu, transit DxC = %llu\n",
              static_cast<unsigned long long>(counts.ingress_max),
              static_cast<unsigned long long>(counts.transit_static));
  std::printf("  naive -> aggregated reduction: %.0fx (paper: 400-1600x for "
              "20-40 servers/ToR)\n",
              counts.naive_avg / counts.aggregated_avg);
}

void run() {
  bench::print_header("Network state accounting (§4.2, §5.3)",
                      "per-switch OpenFlow rule counts by aggregation level");

  // Testbed, all three modes (paper §5.3: max 242 / 180 / 76 with k=4).
  const FlatTreeParams params = bench::testbed_params();
  const FlatTree tree{params};
  report("testbed global mode", tree.realize_uniform(PodMode::kGlobal), 4, 1);
  report("testbed local mode", tree.realize_uniform(PodMode::kLocal), 4, 1);
  report("testbed clos mode", tree.realize_uniform(PodMode::kClos), 4, 1);

  // topo-1, sampled pairs (the full global pair set is 320x319). The Clos
  // mode carries 32 servers per ToR, which is where the paper's 400-1600x
  // naive -> aggregated reduction claim lives (here 32^2 = 1024x).
  const FlatTree big{FlatTreeParams::defaults_for(ClosParams::topo1())};
  report("topo-1 global mode", big.realize_uniform(PodMode::kGlobal), 8, 64);
  report("topo-1 clos mode", big.realize_uniform(PodMode::kClos), 8, 64);
}

}  // namespace
}  // namespace flattree

int main() {
  flattree::run();
  return 0;
}
