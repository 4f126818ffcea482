// Figure 7.2: traffic of the sorted MP algorithm on a 10-cube versus
// multiple one-to-one (unicast) and broadcast delivery.
#include "bench_common.hpp"

int main() {
  mcnet::bench::JsonReporter json("bench_fig7_02_mp_cube");
  using namespace mcnet;
  using mcast::Algorithm;
  const topo::Hypercube cube(10);
  bench::run_static_sweep(
      "=== Figure 7.2: sorted MP algorithm on a 10-cube ===", cube,
      {1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900},
      {bench::static_series(cube, Algorithm::kSortedMP),
       bench::static_series(cube, Algorithm::kSortedMC),
       bench::static_series(cube, Algorithm::kMultiUnicast),
       bench::static_series(cube, Algorithm::kBroadcast)}, &json);
  return 0;
}
