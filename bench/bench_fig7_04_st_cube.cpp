// Figure 7.4: additional traffic of the greedy ST algorithm on a 10-cube
// versus the LEN heuristic [Lan, Esfahanian & Ni 90] (and the unicast /
// broadcast baselines for context).
#include "bench_common.hpp"

int main() {
  mcnet::bench::JsonReporter json("bench_fig7_04_st_cube");
  using namespace mcnet;
  using mcast::Algorithm;
  const topo::Hypercube cube(10);
  bench::run_static_sweep(
      "=== Figure 7.4: greedy ST vs LEN heuristic on a 10-cube ===", cube,
      {1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900},
      {bench::static_series(cube, Algorithm::kGreedyST),
       bench::static_series(cube, Algorithm::kLenTree),
       bench::static_series(cube, Algorithm::kMultiUnicast),
       bench::static_series(cube, Algorithm::kBroadcast)},
      &json, /*base_runs=*/600);
  return 0;
}
