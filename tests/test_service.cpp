// The multicast service layer and routing on the labeled 3-D mesh and
// k-ary n-cube topologies.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "service/multicast_service.hpp"
#include "topology/kary_ncube.hpp"
#include "topology/mesh3d.hpp"

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
  std::vector<std::unique_ptr<mcast::Router>> routers;
  for (const Algorithm a : {Algorithm::kMultiUnicast, Algorithm::kBroadcast,
                            Algorithm::kDualPath, Algorithm::kMultiPath,
                            Algorithm::kFixedPath}) {
    routers.push_back(mcast::make_router(mesh, a));
  }
  evsim::Rng rng(501);
  for (int trial = 0; trial < 15; ++trial) {
    const topo::NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 10);
    const mcast::MulticastRequest req{src,
                                      rng.sample_destinations(mesh.num_nodes(), src, k)};
    for (const auto& router : routers) {
      SCOPED_TRACE(std::string(router->name()));
      verify_route(mesh, req, router->route(req));
    }
  }
  EXPECT_THROW((void)mcast::make_router(mesh, Algorithm::kGreedyST), std::invalid_argument);

  const topo::KAryNCube kary(3, 3);
  const mcast::MulticastRequest req{0, {5, 13, 26}};
  for (const Algorithm a :
       {Algorithm::kDualPath, Algorithm::kMultiPath, Algorithm::kFixedPath}) {
    verify_route(kary, req, mcast::make_router(kary, a)->route(req));
  }
}

TEST(LabeledSuite, BroadcastIsSpanningTreeUnderLabelRouting) {
  const topo::Mesh3D mesh(3, 2, 2);
  const mcast::MulticastRequest req{0, {11}};
  const mcast::MulticastRoute route =
      mcast::make_router(mesh, Algorithm::kBroadcast)->route(req);
  EXPECT_EQ(route.traffic(), mesh.num_nodes() - 1);
}

}  // namespace
