// The multicast service layer and the generic labeled routing suite.
#include <gtest/gtest.h>

#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "service/multicast_service.hpp"
#include "topology/hamiltonian.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

svc::MulticastService make_service(const mcast::Router& router, evsim::Scheduler& sched) {
  return svc::MulticastService(
      router, {.flit_time = 50e-9, .message_flits = 32, .channel_copies = 1}, sched);
}

TEST(MulticastService, DeliversAndCompletes) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_router(mesh, Algorithm::kDualPath);
  evsim::Scheduler sched;
  svc::MulticastService service = make_service(*router, sched);

  std::vector<topo::NodeId> delivered;
  double done_latency = -1.0;
  service.multicast(
      {0, {5, 10, 15}},
      [&](topo::NodeId d, double) { delivered.push_back(d); },
      [&](double l) { done_latency = l; });
  sched.run();
  EXPECT_EQ(delivered.size(), 3u);
  EXPECT_GT(done_latency, 0.0);
  EXPECT_TRUE(service.network().idle());
}

TEST(MulticastService, CallbackCanSendAgain) {
  // Re-entrancy: a completion callback issues the next message.
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_router(mesh, Algorithm::kMultiPath);
  evsim::Scheduler sched;
  svc::MulticastService service = make_service(*router, sched);

  int rounds = 0;
  std::function<void(double)> chain = [&](double) {
    if (++rounds < 5) service.multicast({0, {15}}, {}, chain);
  };
  service.multicast({0, {15}}, {}, chain);
  sched.run();
  EXPECT_EQ(rounds, 5);
}

TEST(LabeledSuite, WorksOnMesh3DAndKAry) {
  const topo::Mesh3D mesh(3, 3, 3);
  mcast::LabeledRoutingSuite suite(
      mesh, std::make_unique<ham::MixedRadixGrayLabeling>(
                ham::MixedRadixGrayLabeling::for_mesh3d(mesh)));
  evsim::Rng rng(501);
  for (int trial = 0; trial < 15; ++trial) {
    const topo::NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 10);
    const mcast::MulticastRequest req{src,
                                      rng.sample_destinations(mesh.num_nodes(), src, k)};
    for (const Algorithm a : {Algorithm::kMultiUnicast, Algorithm::kBroadcast,
                              Algorithm::kDualPath, Algorithm::kMultiPath,
                              Algorithm::kFixedPath}) {
      SCOPED_TRACE(std::string(mcast::algorithm_name(a)));
      verify_route(mesh, req, suite.route(a, req));
    }
  }
  EXPECT_THROW((void)suite.route(Algorithm::kGreedyST, {0, {1}}), std::invalid_argument);

  const topo::KAryNCube kary(3, 3);
  mcast::LabeledRoutingSuite ksuite(
      kary, std::make_unique<ham::MixedRadixGrayLabeling>(
                ham::MixedRadixGrayLabeling::for_kary(kary)));
  const mcast::MulticastRequest req{0, {5, 13, 26}};
  for (const Algorithm a :
       {Algorithm::kDualPath, Algorithm::kMultiPath, Algorithm::kFixedPath}) {
    verify_route(kary, req, ksuite.route(a, req));
  }
}

TEST(LabeledSuite, BroadcastIsSpanningTreeUnderLabelRouting) {
  const topo::Mesh3D mesh(3, 2, 2);
  mcast::LabeledRoutingSuite suite(
      mesh, std::make_unique<ham::MixedRadixGrayLabeling>(
                ham::MixedRadixGrayLabeling::for_mesh3d(mesh)));
  const mcast::MulticastRequest req{0, {11}};
  const mcast::MulticastRoute route = suite.route(Algorithm::kBroadcast, req);
  EXPECT_EQ(route.traffic(), mesh.num_nodes() - 1);
}

}  // namespace
