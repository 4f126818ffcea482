// Exact optimum solvers (Chapter 3 models) and their use as heuristic
// calibration baselines.
#include <gtest/gtest.h>

#include "core/exact.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"

namespace {

using namespace mcnet;
using mcast::MulticastRequest;
using topo::Hypercube;
using topo::Mesh2D;
using topo::NodeId;

// Traffic of the route make_router's `a` router picks for `req` on `t`.
std::uint64_t traffic(const topo::Topology& t, mcast::Algorithm a, const MulticastRequest& req) {
  return mcast::make_router(t, a)->route(req).traffic();
}

TEST(AllPairs, MatchesClosedFormDistances) {
  const Mesh2D mesh(5, 4);
  const auto d = mcast::exact::all_pairs_distances(mesh);
  for (NodeId u = 0; u < mesh.num_nodes(); ++u) {
    for (NodeId v = 0; v < mesh.num_nodes(); ++v) {
      EXPECT_EQ(d[u][v], mesh.distance(u, v));
    }
  }
  const Hypercube cube(4);
  const auto dc = mcast::exact::all_pairs_distances(cube);
  for (NodeId u = 0; u < cube.num_nodes(); ++u) {
    for (NodeId v = 0; v < cube.num_nodes(); ++v) {
      EXPECT_EQ(dc[u][v], cube.distance(u, v));
    }
  }
}

TEST(SteinerOptimum, HandComputedCases) {
  const Mesh2D mesh(4, 4);
  // Single destination: the shortest path.
  EXPECT_EQ(mcast::exact::steiner_tree_optimum(mesh, {0, {15}}), 6u);
  // Corners 3 and 12 from source 0: an L covering both costs 3+3... the
  // optimal tree is 0->3 plus 0->12: 6 edges (no sharing possible beyond 0).
  EXPECT_EQ(mcast::exact::steiner_tree_optimum(mesh, {0, {3, 12}}), 6u);
  // Destinations 1 and 5 from 0: tree 0-1, 1-5: 2 edges.
  EXPECT_EQ(mcast::exact::steiner_tree_optimum(mesh, {0, {1, 5}}), 2u);
  // The classic Steiner gain: corners {3, 12, 15} from 0 need 12 edges as
  // disjoint paths but only... spanning all four corners of a 4x4 mesh
  // costs 3 + 3 + (3 + 3) = 12? optimal rectilinear Steiner tree over the
  // 4 corners has length 9 (an H shape): verify the solver finds <= 9 + ...
  EXPECT_EQ(mcast::exact::steiner_tree_optimum(mesh, {0, {3, 12, 15}}), 9u);
}

TEST(SteinerOptimum, NeverAboveGreedyHeuristic) {
  const Mesh2D mesh(6, 6);
  evsim::Rng rng(101);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 7);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    const std::uint64_t opt = mcast::exact::steiner_tree_optimum(mesh, req);
    const std::uint64_t greedy = traffic(mesh, mcast::Algorithm::kGreedyST, req);
    EXPECT_LE(opt, greedy);
    // Sanity: the optimum is at least the farthest destination distance.
    std::uint32_t far = 0;
    for (const NodeId d : req.destinations) far = std::max(far, mesh.distance(src, d));
    EXPECT_GE(opt, far);
  }
}

TEST(SteinerOptimum, MatchesBruteForceOnTinyCube) {
  // Cross-check Dreyfus-Wagner against an independent exhaustive bound on a
  // 3-cube: enumerate all edge subsets is too big, so instead check
  // against the Held-Karp walk bound (tree <= walk) and the trivial
  // distance lower bound for all destination pairs.
  const Hypercube cube(3);
  for (NodeId a = 1; a < 8; ++a) {
    for (NodeId b = 1; b < 8; ++b) {
      if (a == b || a == 0 || b == 0) continue;
      const MulticastRequest req{0, {a, b}};
      const std::uint64_t st = mcast::exact::steiner_tree_optimum(cube, req);
      const std::uint64_t walk = mcast::exact::multicast_path_optimum_bound(cube, req);
      EXPECT_LE(st, walk);
      EXPECT_GE(st, std::max(cube.distance(0, a), cube.distance(0, b)));
      // For two terminals the Steiner tree is the cheaper of a Y-join or
      // chain; it is never below half the walk.
      EXPECT_GE(2 * st, walk);
    }
  }
}

TEST(PathOptimum, HandComputedCases) {
  const Mesh2D mesh(4, 4);
  // Visit 3 then 15 (or 15 then 3): best order 3 -> 15 = 3 + 3 = 6.
  EXPECT_EQ(mcast::exact::multicast_path_optimum_bound(mesh, {0, {3, 15}}), 6u);
  // Cycle adds the way back from the last stop.
  EXPECT_EQ(mcast::exact::multicast_cycle_optimum_bound(mesh, {0, {3, 15}}), 12u);
  // Star may split: destinations 3 and 12 served by two separate walks
  // costs 3 + 3 = 6; a single walk costs 3 + 6 = 9.
  EXPECT_EQ(mcast::exact::multicast_star_optimum_bound(mesh, {0, {3, 12}}), 6u);
  EXPECT_EQ(mcast::exact::multicast_path_optimum_bound(mesh, {0, {3, 12}}), 9u);
}

TEST(PathOptimum, LowerBoundsSortedMp) {
  const Mesh2D mesh(8, 8);
  evsim::Rng rng(103);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 9);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    const std::uint64_t bound = mcast::exact::multicast_path_optimum_bound(mesh, req);
    EXPECT_LE(bound, traffic(mesh, mcast::Algorithm::kSortedMP, req));
    EXPECT_LE(mcast::exact::multicast_cycle_optimum_bound(mesh, req),
              traffic(mesh, mcast::Algorithm::kSortedMC, req));
  }
}

TEST(StarOptimum, LowerBoundsDualAndMultiPath) {
  const Mesh2D mesh(8, 8);
  evsim::Rng rng(107);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 8);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    const std::uint64_t bound = mcast::exact::multicast_star_optimum_bound(mesh, req);
    EXPECT_LE(bound, traffic(mesh, mcast::Algorithm::kDualPath, req));
    EXPECT_LE(bound, traffic(mesh, mcast::Algorithm::kMultiPath, req));
    EXPECT_LE(bound, traffic(mesh, mcast::Algorithm::kFixedPath, req));
    // And the model hierarchy of Chapter 3: star <= path, tree <= star.
    EXPECT_LE(bound, mcast::exact::multicast_path_optimum_bound(mesh, req));
    EXPECT_LE(mcast::exact::steiner_tree_optimum(mesh, req), bound);
  }
}

TEST(ExactSolvers, RejectOversizedInstances) {
  const Mesh2D mesh(8, 8);
  MulticastRequest big{0, {}};
  for (NodeId d = 1; d <= 20; ++d) big.destinations.push_back(d);
  EXPECT_THROW((void)mcast::exact::steiner_tree_optimum(mesh, big), std::invalid_argument);
  EXPECT_THROW((void)mcast::exact::multicast_path_optimum_bound(mesh, big),
               std::invalid_argument);
  EXPECT_THROW((void)mcast::exact::multicast_star_optimum_bound(mesh, big),
               std::invalid_argument);
}

}  // namespace
