// Figure 7.3: additional traffic of the greedy ST algorithm on a 32x32
// mesh versus multiple one-to-one and broadcast delivery.
#include "bench_common.hpp"

int main() {
  mcnet::bench::JsonReporter json("bench_fig7_03_st_mesh");
  using namespace mcnet;
  using mcast::Algorithm;
  const topo::Mesh2D mesh(32, 32);
  bench::run_static_sweep(
      "=== Figure 7.3: greedy ST algorithm on a 32x32 mesh ===", mesh,
      {1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900},
      {bench::static_series(mesh, Algorithm::kGreedyST),
       bench::static_series(mesh, Algorithm::kMultiUnicast),
       bench::static_series(mesh, Algorithm::kBroadcast)},
      &json, /*base_runs=*/600);
  return 0;
}
