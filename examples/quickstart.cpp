// Quickstart: route one multicast on an 8x8 mesh with every algorithm,
// compare traffic, then replay the dual-path route through the wormhole
// simulator and print per-destination latencies.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/router.hpp"
#include "evsim/scheduler.hpp"
#include "wormhole/network.hpp"

int main() {
  using namespace mcnet;
  using mcast::Algorithm;

  // 1. Build the topology.  make_router() binds an algorithm to it (the
  //    labeling, and the Hamiltonian cycle or unicast relay when the
  //    algorithm uses one, are derived once, up front, inside the router).
  //    dl-free is the router's claim on its channel-copy count, here the
  //    default of one: the double-channel X-first tree needs two.
  const topo::Mesh2D mesh(8, 8);

  // 2. One multicast: source (3,3), seven destinations.
  const mcast::MulticastRequest request{
      mesh.node(3, 3),
      {mesh.node(0, 0), mesh.node(7, 0), mesh.node(5, 2), mesh.node(1, 4), mesh.node(6, 6),
       mesh.node(0, 7), mesh.node(7, 7)}};
  request.validate(mesh.num_nodes());

  std::printf("multicast from node (3,3) to %zu destinations on %s\n\n",
              request.destinations.size(), mesh.name().c_str());
  std::printf("%-20s %10s %12s %10s %10s\n", "algorithm", "traffic", "additional",
              "max hops", "dl-free");
  for (const Algorithm a :
       {Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kSortedMP,
        Algorithm::kGreedyST, Algorithm::kXFirstMT, Algorithm::kDividedGreedyMT,
        Algorithm::kDualPath, Algorithm::kMultiPath, Algorithm::kFixedPath,
        Algorithm::kDCXFirstTree}) {
    const auto router = mcast::make_router(mesh, a);
    const mcast::MulticastRoute route = router->route(request);
    verify_route(mesh, request, route);
    std::printf("%-20s %10llu %12lld %10u %10s\n", std::string(router->name()).c_str(),
                static_cast<unsigned long long>(route.traffic()),
                static_cast<long long>(
                    route.additional_traffic(request.destinations.size())),
                route.max_delivery_hops(), router->deadlock_free() ? "yes" : "no");
  }

  // 3. Replay the dual-path route in the flit-level wormhole simulator:
  //    128-byte messages over 20 Mbyte/s channels (the paper's setting).
  evsim::Scheduler sched;
  worm::Network net(mesh, {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1},
                    sched);
  worm::NetworkHooks hooks;
  hooks.on_delivery = [&mesh](std::uint64_t, topo::NodeId dest, double latency) {
    const topo::Coord2 c = mesh.coord(dest);
    std::printf("  delivered to (%d,%d) after %.2f us\n", c.x, c.y, latency * 1e6);
  };
  net.set_hooks(std::move(hooks));

  std::printf("\ndual-path wormhole replay (contention-free):\n");
  const auto dual = mcast::make_router(mesh, Algorithm::kDualPath, 1);
  net.inject(dual->specs(dual->route(request)));
  sched.run();
  std::printf("network idle: %s\n", net.idle() ? "yes" : "no");
  return 0;
}
