// A full dynamic simulation in the style of Section 7.2: open-loop
// multicast traffic on an 8x8 mesh, one latency estimate per algorithm.
//
//   $ ./examples/dynamic_sim
#include <cstdio>

#include "core/route_cache.hpp"
#include "wormhole/experiment.hpp"

int main() {
  using namespace mcnet;

  // The paper's reference point: 8x8 mesh, 128-byte messages, 20 Mbyte/s
  // channels, ~10 destinations, 300 us mean interarrival per node.
  const topo::Mesh2D mesh(8, 8);

  std::printf("dynamic wormhole simulation, 8x8 mesh, 300 us interarrival:\n");
  std::printf("%-16s %14s %12s %12s %10s\n", "algorithm", "latency (us)", "95%-CI",
              "deliveries", "converged");
  for (const mcast::Algorithm algo :
       {mcast::Algorithm::kDualPath, mcast::Algorithm::kMultiPath,
        mcast::Algorithm::kFixedPath}) {
    worm::DynamicConfig cfg;
    cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
    cfg.traffic = {.mean_interarrival_s = 300e-6,
                   .avg_destinations = 10,
                   .fixed_destinations = false,
                   .exponential_interarrival = false,
                   .seed = 4242};
    cfg.target_messages = 1500;
    cfg.max_messages = 5000;
    cfg.max_sim_time_s = 0.5;
    const auto router = mcast::make_caching_router(mesh, algo, 1);
    const worm::DynamicResult r = run_dynamic(*router, cfg);
    std::printf("%-16s %14.2f %12.2f %12llu %10s\n",
                std::string(router->name()).c_str(), r.mean_latency_us, r.ci_half_us,
                static_cast<unsigned long long>(r.deliveries), r.converged ? "yes" : "no");
  }
  return 0;
}
