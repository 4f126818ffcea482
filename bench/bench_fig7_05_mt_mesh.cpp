// Figure 7.5: traffic of the X-first and divided greedy multicast-tree
// algorithms on a 16x16 mesh, against the unicast / broadcast baselines.
#include "bench_common.hpp"

int main() {
  mcnet::bench::JsonReporter json("bench_fig7_05_mt_mesh");
  using namespace mcnet;
  using mcast::Algorithm;
  const topo::Mesh2D mesh(16, 16);
  bench::run_static_sweep(
      "=== Figure 7.5: X-first vs divided greedy on a 16x16 mesh ===", mesh,
      {1, 2, 5, 10, 20, 40, 60, 80, 100, 130, 160, 200, 230},
      {bench::static_series(mesh, Algorithm::kXFirstMT),
       bench::static_series(mesh, Algorithm::kDividedGreedyMT),
       bench::static_series(mesh, Algorithm::kMultiUnicast),
       bench::static_series(mesh, Algorithm::kBroadcast)}, &json);
  return 0;
}
