// Figure 7.7: additional traffic of the deadlock-free multicast methods
// (dual-path, multi-path, fixed-path, double-channel X-first tree) on an
// 8x8 mesh, for various destination counts.
#include "bench_common.hpp"

int main() {
  mcnet::bench::JsonReporter json("bench_fig7_07_static_mesh");
  using namespace mcnet;
  using mcast::Algorithm;
  const topo::Mesh2D mesh(8, 8);
  bench::run_static_sweep(
      "=== Figure 7.7: dual-/multi-/fixed-path multicast on an 8x8 mesh ===", mesh,
      {1, 2, 4, 6, 8, 10, 15, 20, 25, 30, 40, 50, 60},
      {bench::static_series(mesh, Algorithm::kDualPath),
       bench::static_series(mesh, Algorithm::kMultiPath),
       bench::static_series(mesh, Algorithm::kFixedPath),
       bench::static_series(mesh, Algorithm::kDCXFirstTree)}, &json);
  return 0;
}
