#include <gtest/gtest.h>

#include "cdg/analyzers.hpp"
#include "core/baselines.hpp"
#include "core/multicast.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"

namespace {

using namespace mcnet;
using mcast::MulticastRequest;
using mcast::MulticastRoute;
using mcast::PathRoute;
using mcast::TreeRoute;
using topo::Hypercube;
using topo::Mesh2D;
using topo::NodeId;

TEST(MulticastRequest, Validation) {
  MulticastRequest ok{0, {1, 2, 3}};
  EXPECT_NO_THROW(ok.validate(16));

  MulticastRequest empty{0, {}};
  EXPECT_THROW(empty.validate(16), std::invalid_argument);

  MulticastRequest dup{0, {1, 1}};
  EXPECT_THROW(dup.validate(16), std::invalid_argument);

  MulticastRequest self{0, {0, 1}};
  EXPECT_THROW(self.validate(16), std::invalid_argument);

  MulticastRequest oob{0, {99}};
  EXPECT_THROW(oob.validate(16), std::invalid_argument);

  MulticastRequest src_oob{99, {1}};
  EXPECT_THROW(src_oob.validate(16), std::invalid_argument);
}

TEST(MulticastRequest, NormalizeFastPathIsZeroCopy) {
  mcast::RequestScratch scratch;
  MulticastRequest storage;

  // Clean request: normalize_into must hand back the input object itself
  // (the allocation-free fast path), and normalized() an equal copy.
  const MulticastRequest clean{0, {3, 1, 2}};
  EXPECT_TRUE(clean.is_normalized(16, scratch));
  const MulticastRequest& same = clean.normalize_into(16, scratch, storage);
  EXPECT_EQ(&same, &clean);
  EXPECT_EQ(clean.normalized(16), clean);

  // Duplicate destinations: the rebuild keeps first occurrences in order
  // and lands in `storage`, not in a fresh allocation per call.
  const MulticastRequest dup{0, {3, 1, 3, 2, 1}};
  EXPECT_FALSE(dup.is_normalized(16, scratch));
  const MulticastRequest& rebuilt = dup.normalize_into(16, scratch, storage);
  EXPECT_EQ(&rebuilt, &storage);
  EXPECT_EQ(rebuilt.destinations, (std::vector<NodeId>{3, 1, 2}));
  EXPECT_EQ(dup.normalized(16), rebuilt);

  // The error contract matches normalized(): same conditions, same type.
  const MulticastRequest self{0, {0, 1}};
  EXPECT_THROW((void)self.is_normalized(16, scratch), std::invalid_argument);
  EXPECT_THROW((void)self.normalize_into(16, scratch, storage), std::invalid_argument);
  const MulticastRequest oob{0, {99}};
  EXPECT_THROW((void)oob.normalize_into(16, scratch, storage), std::invalid_argument);
}

TEST(MulticastRoute, TrafficAndDepthMetrics) {
  MulticastRoute route;
  route.source = 0;
  PathRoute p;
  p.nodes = {0, 1, 2, 3};
  p.delivery_hops = {2, 3};
  route.paths.push_back(p);
  TreeRoute t;
  t.source = 0;
  const auto l0 = t.add_link(0, 4, -1);
  const auto l1 = t.add_link(4, 5, static_cast<std::int32_t>(l0));
  t.delivery_links = {l1};
  route.trees.push_back(t);

  EXPECT_EQ(route.traffic(), 5u);             // 3 path hops + 2 tree links
  EXPECT_EQ(route.additional_traffic(3), 2);  // 5 - 3 destinations
  EXPECT_EQ(route.max_delivery_hops(), 3u);   // path delivery at hop 3
  EXPECT_EQ(route.num_deliveries(), 3u);
}

TEST(MulticastRoute, TreeDepthFollowsParents) {
  TreeRoute t;
  t.source = 0;
  const auto a = t.add_link(0, 1, -1);
  const auto b = t.add_link(1, 2, static_cast<std::int32_t>(a));
  const auto c = t.add_link(2, 3, static_cast<std::int32_t>(b));
  EXPECT_EQ(t.links[a].depth, 1u);
  EXPECT_EQ(t.links[b].depth, 2u);
  EXPECT_EQ(t.links[c].depth, 3u);
}

TEST(VerifyRoute, AcceptsValidRejectsBroken) {
  const Mesh2D mesh(4, 4);
  const MulticastRequest req{0, {3, 5}};

  MulticastRoute good;
  good.source = 0;
  PathRoute p;
  p.nodes = {0, 1, 5, 6, 7, 3};  // 0->1 right, up to 5, right 6,7, up... (4x4 ids)
  // (0,0)=0 ->(1,0)=1 ->(1,1)=5 ->(2,1)=6 ->(3,1)=7 ->(3,0)=3
  p.delivery_hops = {2, 5};
  good.paths.push_back(p);
  EXPECT_NO_THROW(verify_route(mesh, req, good));

  MulticastRoute wrong_source = good;
  wrong_source.source = 1;
  EXPECT_THROW(verify_route(mesh, req, wrong_source), std::logic_error);

  MulticastRoute missing = good;
  missing.paths[0].delivery_hops = {2};  // node 3 never delivered
  EXPECT_THROW(verify_route(mesh, req, missing), std::logic_error);

  MulticastRoute twice = good;
  twice.paths[0].delivery_hops = {2, 5, 5};
  EXPECT_THROW(verify_route(mesh, req, twice), std::logic_error);

  MulticastRoute disjoint = good;
  disjoint.paths[0].nodes[2] = 9;  // 1 and 9 are not neighbours
  EXPECT_THROW(verify_route(mesh, req, disjoint), std::logic_error);
}

std::string verify_error(const topo::Topology& topology, const MulticastRequest& request,
                         const MulticastRoute& route) {
  try {
    verify_route(topology, request, route);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "accepted";
}

// A tree link's parent index is checked before the parent is read: a parent
// past the end of the link list is refused by name, not read out of bounds.
TEST(VerifyRoute, TreeParentIsCheckedBeforeItIsRead) {
  const Mesh2D mesh(4, 4);
  const MulticastRequest req{0, {1, 4}};
  MulticastRoute route;
  route.source = 0;
  TreeRoute& tree = route.trees.emplace_back();
  tree.source = 0;
  tree.links.push_back({0, 1, 5, 1});
  tree.delivery_links = {0};
  EXPECT_EQ(verify_error(mesh, req, route), "tree parent not topologically ordered");

  tree.links[0].parent = -1;
  EXPECT_EQ(verify_error(mesh, req, route), "destination 4 delivered 0 times");
  tree.add_link(0, 4, -1);
  tree.delivery_links = {1, 0, 1};
  EXPECT_EQ(verify_error(mesh, req, route), "destination 4 delivered 2 times");
  tree.delivery_links = {1, 0};
  EXPECT_EQ(verify_error(mesh, req, route), "accepted");
  tree.delivery_links = {1, 0, 0, 1};  // both over-delivered: request order names 1 first
  EXPECT_EQ(verify_error(mesh, req, route), "destination 1 delivered 2 times");
}

TEST(Baselines, MultiUnicastTrafficIsSumOfDistances) {
  const Mesh2D mesh(8, 8);
  const auto unicast = cdg::xfirst_routing(mesh);
  const MulticastRequest req{mesh.node(3, 3), {mesh.node(0, 0), mesh.node(7, 7), mesh.node(3, 5)}};
  const MulticastRoute route = multi_unicast_route(mesh, unicast, req);
  verify_route(mesh, req, route);
  std::uint64_t expected = 0;
  for (const NodeId d : req.destinations) expected += mesh.distance(req.source, d);
  EXPECT_EQ(route.traffic(), expected);
  EXPECT_EQ(route.paths.size(), 3u);
}

TEST(Baselines, BroadcastTrafficIsAlwaysNMinusOne) {
  const Mesh2D mesh(8, 8);
  const auto unicast = cdg::xfirst_routing(mesh);
  for (const std::size_t k : {1u, 5u, 20u}) {
    MulticastRequest req{0, {}};
    for (NodeId d = 1; d <= k; ++d) req.destinations.push_back(d);
    const MulticastRoute route = broadcast_route(mesh, unicast, req);
    verify_route(mesh, req, route);
    EXPECT_EQ(route.traffic(), mesh.num_nodes() - 1);
  }
}

TEST(Baselines, BroadcastTreeOnCubeIsSpanning) {
  const Hypercube cube(4);
  const auto unicast = cdg::ecube_routing(cube);
  const MulticastRequest req{5, {0, 15}};
  const MulticastRoute route = broadcast_route(cube, unicast, req);
  verify_route(cube, req, route);
  EXPECT_EQ(route.traffic(), cube.num_nodes() - 1);
  // Every node is reached exactly once (it is a tree).
  std::vector<int> seen(cube.num_nodes(), 0);
  seen[req.source] = 1;
  for (const auto& link : route.trees[0].links) ++seen[link.to];
  for (NodeId u = 0; u < cube.num_nodes(); ++u) EXPECT_EQ(seen[u], 1) << "node " << u;
}

TEST(Baselines, MultiUnicastDeliveryDepthEqualsDistance) {
  const Hypercube cube(5);
  const auto unicast = cdg::ecube_routing(cube);
  const MulticastRequest req{7, {0, 31, 12}};
  const MulticastRoute route = multi_unicast_route(cube, unicast, req);
  for (std::size_t i = 0; i < req.destinations.size(); ++i) {
    EXPECT_EQ(route.paths[i].hops(), cube.distance(req.source, req.destinations[i]));
  }
}

}  // namespace
