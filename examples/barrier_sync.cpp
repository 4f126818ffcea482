// Barrier synchronisation via multicast (Section 1.2: "barrier
// synchronization can be efficiently implemented using multicast
// communication").
//
// All 64 nodes of an 8x8 mesh arrive at a barrier at slightly staggered
// times; each reports to the root with a short unicast, and once the root
// has heard from everyone it releases the barrier with ONE multicast to
// all 63 nodes.  The barrier cost is dominated by that release multicast,
// so the choice of multicast algorithm is directly visible.
//
//   $ ./examples/barrier_sync
#include <cstdio>
#include <vector>

#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "wormhole/network.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

double run_barrier(const topo::Mesh2D& mesh, Algorithm release_algo, std::uint8_t copies) {
  const auto release_router = mcast::make_router(mesh, release_algo, copies);
  const auto report_router = mcast::make_router(mesh, Algorithm::kDualPath, copies);
  const topo::NodeId root = mesh.node(3, 3);
  evsim::Scheduler sched;
  worm::Network net(
      mesh, {.flit_time = 50e-9, .message_flits = 8, .channel_copies = copies}, sched);

  // Phase 1: arrival reports (8-byte unicasts) from every non-root node,
  // staggered over the first 2 us.
  std::uint32_t arrived = 0;
  double barrier_done = -1.0;
  evsim::Rng rng(7);

  worm::NetworkHooks hooks;
  hooks.on_delivery = [&](std::uint64_t, topo::NodeId dest, double) {
    if (dest == root) {
      if (++arrived == mesh.num_nodes() - 1) {
        // Phase 2: release multicast to everyone.
        std::vector<topo::NodeId> everyone;
        for (topo::NodeId d = 0; d < mesh.num_nodes(); ++d) {
          if (d != root) everyone.push_back(d);
        }
        net.inject(release_router->build(root, std::move(everyone)));
      }
    }
  };
  hooks.on_message_done = [&](std::uint64_t, double) {
    // The last completed message is the release multicast; remember when.
    barrier_done = sched.now();
  };
  net.set_hooks(std::move(hooks));

  for (topo::NodeId n = 0; n < mesh.num_nodes(); ++n) {
    if (n == root) continue;
    sched.schedule_in(rng.uniform(0.0, 2e-6), [&net, &report_router, n, root] {
      net.inject(report_router->build(n, {root}));
    });
  }
  sched.run();
  return barrier_done;
}

}  // namespace

int main() {
  const topo::Mesh2D mesh(8, 8);

  std::printf("barrier synchronisation on an 8x8 mesh (root (3,3), 8-byte messages)\n\n");
  std::printf("%-22s %10s %16s\n", "release multicast", "channels", "barrier time (us)");
  struct Row {
    Algorithm algo;
    std::uint8_t copies;
  };
  for (const Row& row : {Row{Algorithm::kDualPath, 1}, Row{Algorithm::kMultiPath, 1},
                         Row{Algorithm::kFixedPath, 1}, Row{Algorithm::kBroadcast, 1},
                         Row{Algorithm::kDCXFirstTree, 2}}) {
    const double t = run_barrier(mesh, row.algo, row.copies);
    std::printf("%-22s %10u %16.2f\n", std::string(algorithm_name(row.algo)).c_str(),
                row.copies, t * 1e6);
  }
  std::printf("\n(the release multicast dominates; tree shapes deliver in parallel\n"
              "while single-path shapes serialise the long Hamiltonian walk)\n");
  return 0;
}
