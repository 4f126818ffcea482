// Figure 7.1: traffic of the sorted MP algorithm on a 32x32 mesh versus
// multiple one-to-one (unicast) and broadcast delivery, for 1..900
// destinations, averaged over random multicast sets.
#include "bench_common.hpp"

int main() {
  mcnet::bench::JsonReporter json("bench_fig7_01_mp_mesh");
  using namespace mcnet;
  using mcast::Algorithm;
  const topo::Mesh2D mesh(32, 32);
  bench::run_static_sweep(
      "=== Figure 7.1: sorted MP algorithm on a 32x32 mesh ===", mesh,
      {1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900},
      {bench::static_series(mesh, Algorithm::kSortedMP),
       bench::static_series(mesh, Algorithm::kSortedMC),
       bench::static_series(mesh, Algorithm::kMultiUnicast),
       bench::static_series(mesh, Algorithm::kBroadcast)}, &json);
  return 0;
}
