// Integration tests locking the *shape* of the Chapter 7 results: each
// test is a scaled-down version of a figure with generous margins, so the
// paper's qualitative findings are enforced by CI, not only by the bench
// binaries.
#include <gtest/gtest.h>

#include "core/route_factory.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "wormhole/experiment.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using mcast::MeshRoutingSuite;
using mcast::MulticastRequest;
using topo::Mesh2D;
using topo::NodeId;

double mean_additional(const topo::Topology& t,
                       const std::function<mcast::MulticastRoute(const MulticastRequest&)>& f,
                       std::uint32_t k, int runs, std::uint64_t seed) {
  evsim::Rng rng(seed);
  double total = 0.0;
  for (int r = 0; r < runs; ++r) {
    const NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
    const MulticastRequest req{src, rng.sample_destinations(t.num_nodes(), src, k)};
    total += static_cast<double>(f(req).additional_traffic(k));
  }
  return total / runs;
}

worm::DynamicResult run_point(const Mesh2D& mesh, Algorithm algo, std::uint8_t copies,
                              double interarrival_us, std::uint32_t dests, bool fixed_dests) {
  worm::DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = copies};
  cfg.traffic = {.mean_interarrival_s = interarrival_us * 1e-6,
                 .avg_destinations = dests,
                 .fixed_destinations = fixed_dests,
                 .exponential_interarrival = false,
                 .seed = 33};
  cfg.target_messages = 500;
  cfg.max_messages = 1500;
  cfg.max_sim_time_s = 0.05;
  cfg.batch_size = 200;
  return run_dynamic(*mcast::make_router(mesh, algo, copies), cfg);
}

// Fig. 7.1 shape: sorted MP beats multi-unicast for moderate k and beats
// broadcast everywhere on a 32x32 mesh.
TEST(FigureShapes, Fig71SortedMpBeatsBaselines) {
  const Mesh2D mesh(32, 32);
  const MeshRoutingSuite suite(mesh);
  const auto mp = [&](const MulticastRequest& r) { return suite.route(Algorithm::kSortedMP, r); };
  const auto uni = [&](const MulticastRequest& r) {
    return suite.route(Algorithm::kMultiUnicast, r);
  };
  for (const std::uint32_t k : {50u, 200u, 500u}) {
    EXPECT_LT(mean_additional(mesh, mp, k, 60, k), mean_additional(mesh, uni, k, 60, k))
        << "k=" << k;
    EXPECT_LT(mean_additional(mesh, mp, k, 60, k), 1023.0 - k) << "k=" << k;
  }
}

// Fig. 7.4 shape: greedy ST generates less traffic than the LEN heuristic
// on the hypercube.
TEST(FigureShapes, Fig74GreedyStBeatsLen) {
  const topo::Hypercube cube(8);
  const mcast::CubeRoutingSuite suite(cube);
  const auto st = [&](const MulticastRequest& r) { return suite.route(Algorithm::kGreedyST, r); };
  const auto len = [&](const MulticastRequest& r) { return suite.route(Algorithm::kLenTree, r); };
  for (const std::uint32_t k : {20u, 60u, 120u}) {
    EXPECT_LT(mean_additional(cube, st, k, 80, k + 1),
              mean_additional(cube, len, k, 80, k + 1))
        << "k=" << k;
  }
}

// Fig. 7.7 shape: fixed-path wastes channels for small sets and converges
// to dual-path for large ones; multi-path <= dual-path on average.
TEST(FigureShapes, Fig77PathTrafficOrdering) {
  const Mesh2D mesh(8, 8);
  const MeshRoutingSuite suite(mesh);
  const auto make = [&](Algorithm a) {
    return [&suite, a](const MulticastRequest& r) { return suite.route(a, r); };
  };
  const double dual_small = mean_additional(mesh, make(Algorithm::kDualPath), 4, 200, 1);
  const double fixed_small = mean_additional(mesh, make(Algorithm::kFixedPath), 4, 200, 1);
  EXPECT_GT(fixed_small, 2.0 * dual_small);
  const double dual_large = mean_additional(mesh, make(Algorithm::kDualPath), 55, 200, 2);
  const double fixed_large = mean_additional(mesh, make(Algorithm::kFixedPath), 55, 200, 2);
  EXPECT_LT(fixed_large, 1.2 * dual_large);
  const double multi_mid = mean_additional(mesh, make(Algorithm::kMultiPath), 20, 300, 3);
  const double dual_mid = mean_additional(mesh, make(Algorithm::kDualPath), 20, 300, 3);
  EXPECT_LE(multi_mid, dual_mid * 1.02);
}

// Fig. 7.9 shape: with many destinations the lock-step tree's latency on a
// double-channel mesh dwarfs the path algorithms'.
TEST(FigureShapes, Fig79TreeDegradesWithDestinations) {
  const Mesh2D mesh(8, 8);
  const auto tree = run_point(mesh, Algorithm::kDCXFirstTree, 2, 300, 30, true);
  const auto dual = run_point(mesh, Algorithm::kDualPath, 2, 300, 30, true);
  EXPECT_GT(tree.mean_latency_us, 3.0 * dual.mean_latency_us);
}

// Fig. 7.11 shape: at high load and many destinations, multi-path's source
// hot spots make it worse than dual-path.
TEST(FigureShapes, Fig711MultiPathHotSpots) {
  const Mesh2D mesh(8, 8);
  const auto multi = run_point(mesh, Algorithm::kMultiPath, 1, 400, 30, true);
  const auto dual = run_point(mesh, Algorithm::kDualPath, 1, 400, 30, true);
  EXPECT_GT(multi.mean_latency_us, 1.5 * dual.mean_latency_us);
}

// Fig. 7.8 shape: at a load where paths are fine, the tree algorithm is
// already far slower.
TEST(FigureShapes, Fig78TreeSaturatesFirst) {
  const Mesh2D mesh(8, 8);
  const auto tree = run_point(mesh, Algorithm::kDCXFirstTree, 2, 180, 10, false);
  const auto multi = run_point(mesh, Algorithm::kMultiPath, 2, 180, 10, false);
  EXPECT_GT(tree.mean_latency_us, 2.0 * multi.mean_latency_us);
  EXPECT_LT(multi.mean_latency_us, 40.0);
}

}  // namespace
