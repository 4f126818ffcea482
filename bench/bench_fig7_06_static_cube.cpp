// Figure 7.6: additional traffic of the deadlock-free multicast methods
// (dual-path, multi-path, fixed-path) on a 6-cube -- the static
// measurement of the Chapter 6 algorithms.
#include "bench_common.hpp"

int main() {
  mcnet::bench::JsonReporter json("bench_fig7_06_static_cube");
  using namespace mcnet;
  using mcast::Algorithm;
  const topo::Hypercube cube(6);
  bench::run_static_sweep(
      "=== Figure 7.6: dual-/multi-/fixed-path multicast on a 6-cube ===", cube,
      {1, 2, 4, 6, 8, 10, 15, 20, 25, 30, 40, 50, 60},
      {bench::static_series(cube, Algorithm::kDualPath),
       bench::static_series(cube, Algorithm::kMultiPath),
       bench::static_series(cube, Algorithm::kFixedPath),
       bench::static_series(cube, Algorithm::kGreedyST)}, &json);
  return 0;
}
