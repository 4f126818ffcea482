// Consolidated randomized fuzz: random topologies x random requests x every
// applicable algorithm, checking the cross-cutting invariants in one sweep:
//   * every route validates structurally (verify_route);
//   * the Chapter 3 model hierarchy holds instance-by-instance
//     (Steiner optimum <= star optimum <= walk optimum; heuristics above
//     their model's optimum);
//   * every deadlock-free route drains through the wormhole simulator.
#include <gtest/gtest.h>

#include "core/exact.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/network.hpp"
#include "wormhole/worm.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using mcast::MulticastRequest;
using mcast::MulticastRoute;
using topo::NodeId;

class FuzzMesh : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzMesh, AllInvariantsOnRandomInstance) {
  evsim::Rng rng(GetParam());
  const std::uint32_t w = rng.uniform_int(2, 9);
  const std::uint32_t h = rng.uniform_int(2, 9);
  const topo::Mesh2D mesh(w, h);

  const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
  const std::uint32_t k = rng.uniform_int(1, std::min(8u, mesh.num_nodes() - 1));
  const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};

  // Model optima and their hierarchy.
  const std::uint64_t st_opt = mcast::exact::steiner_tree_optimum(mesh, req);
  const std::uint64_t ms_opt = mcast::exact::multicast_star_optimum_bound(mesh, req);
  const std::uint64_t mp_opt = mcast::exact::multicast_path_optimum_bound(mesh, req);
  EXPECT_LE(st_opt, ms_opt);
  EXPECT_LE(ms_opt, mp_opt);

  evsim::Scheduler sched;
  worm::Network net(mesh, {.flit_time = 1.0, .message_flits = 6, .channel_copies = 2},
                    sched);

  const std::vector<Algorithm> algos = {
      Algorithm::kMultiUnicast, Algorithm::kBroadcast,       Algorithm::kGreedyST,
      Algorithm::kXFirstMT,     Algorithm::kDividedGreedyMT, Algorithm::kDualPath,
      Algorithm::kMultiPath,    Algorithm::kFixedPath,       Algorithm::kDCXFirstTree};
  for (const Algorithm a : algos) {
    SCOPED_TRACE(std::string(mcast::algorithm_name(a)));
    const MulticastRoute route = mcast::make_router(mesh, a)->route(req);
    verify_route(mesh, req, route);
    // Heuristics cannot beat their model's optimum.
    if (a == Algorithm::kGreedyST) {
      EXPECT_GE(route.traffic(), st_opt);
    }
    if (a == Algorithm::kDualPath || a == Algorithm::kMultiPath ||
        a == Algorithm::kFixedPath) {
      EXPECT_GE(route.traffic(), ms_opt);
    }
    // Replay through the simulator (double channels so even the tree
    // shapes are deadlock-free); no deliveries may be lost.
    net.inject(worm::make_worm_specs(mesh, route, 2));
  }
  if (w % 2 == 0 || h % 2 == 0) {  // fact F1: the mesh has a Hamiltonian cycle
    for (const Algorithm a : {Algorithm::kSortedMP, Algorithm::kSortedMC}) {
      const MulticastRoute route = mcast::make_router(mesh, a)->route(req);
      verify_route(mesh, req, route);
      EXPECT_GE(route.traffic(), a == Algorithm::kSortedMP ? mp_opt : mp_opt);
      net.inject(worm::make_worm_specs(mesh, route, 2));
    }
  }
  sched.run();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  EXPECT_TRUE(net.find_deadlock().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMesh, ::testing::Range<std::uint64_t>(1, 33));

class FuzzCube : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCube, AllInvariantsOnRandomInstance) {
  evsim::Rng rng(GetParam() * 7919);
  const std::uint32_t n = rng.uniform_int(2, 7);
  const topo::Hypercube cube(n);

  const NodeId src = rng.uniform_int(0, cube.num_nodes() - 1);
  const std::uint32_t k = rng.uniform_int(1, std::min(8u, cube.num_nodes() - 1));
  const MulticastRequest req{src, rng.sample_destinations(cube.num_nodes(), src, k)};

  const std::uint64_t st_opt = mcast::exact::steiner_tree_optimum(cube, req);
  const std::uint64_t ms_opt = mcast::exact::multicast_star_optimum_bound(cube, req);
  EXPECT_LE(st_opt, ms_opt);

  evsim::Scheduler sched;
  worm::Network net(cube, {.flit_time = 1.0, .message_flits = 6, .channel_copies = 1},
                    sched);
  for (const Algorithm a :
       {Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kSortedMP,
        Algorithm::kGreedyST, Algorithm::kLenTree, Algorithm::kDualPath,
        Algorithm::kMultiPath, Algorithm::kFixedPath}) {
    SCOPED_TRACE(std::string(mcast::algorithm_name(a)));
    const MulticastRoute route = mcast::make_router(cube, a)->route(req);
    verify_route(cube, req, route);
    if (a == Algorithm::kGreedyST || a == Algorithm::kLenTree) {
      EXPECT_GE(route.traffic(), st_opt);
    }
  }
  // Path algorithms drain even on single channels (they are the
  // deadlock-free ones); inject them all concurrently.
  for (const Algorithm a :
       {Algorithm::kDualPath, Algorithm::kMultiPath, Algorithm::kFixedPath}) {
    net.inject(mcast::make_router(cube, a)->build(req.source, req.destinations));
  }
  sched.run();
  EXPECT_TRUE(net.idle());
  EXPECT_TRUE(net.find_deadlock().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCube, ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
