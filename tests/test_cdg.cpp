#include <gtest/gtest.h>

#include <algorithm>

#include "cdg/analyzers.hpp"
#include "cdg/channel_graph.hpp"
#include "topology/hamiltonian.hpp"

namespace {

using namespace mcnet;
using cdg::ChannelGraph;
using topo::ChannelId;
using topo::Hypercube;
using topo::KAryNCube;
using topo::Mesh2D;
using topo::Mesh3D;
using topo::NodeId;

// Every consecutive pair of the reported cycle (wrapping around) must be an
// actual edge of the graph.
void expect_is_cycle(const ChannelGraph& g, const std::vector<ChannelId>& cycle) {
  ASSERT_GE(cycle.size(), 2u);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const ChannelId from = cycle[i];
    const ChannelId to = cycle[(i + 1) % cycle.size()];
    const auto& succ = g.successors(from);
    EXPECT_TRUE(std::binary_search(succ.begin(), succ.end(), to))
        << "missing edge " << from << " -> " << to;
  }
}

TEST(ChannelGraph, DetectsCycles) {
  ChannelGraph g(4);
  g.add_dependency(0, 1);
  g.add_dependency(1, 2);
  g.add_dependency(2, 3);
  EXPECT_TRUE(g.acyclic());
  g.add_dependency(3, 1);
  EXPECT_FALSE(g.acyclic());
  const auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  // The cycle should be 1 -> 2 -> 3 (-> 1).
  EXPECT_EQ(cycle->size(), 3u);
}

TEST(ChannelGraph, DeduplicatesDependencies) {
  ChannelGraph g(2);
  g.add_dependency(0, 1);
  g.add_dependency(0, 1);
  EXPECT_EQ(g.num_dependencies(), 1u);
}

TEST(ChannelGraph, FindsPlantedTwoCycle) {
  ChannelGraph g(5);
  g.add_dependency(3, 4);  // acyclic noise
  g.add_dependency(0, 1);
  g.add_dependency(1, 0);
  const auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 2u);
  expect_is_cycle(g, *cycle);
  EXPECT_TRUE(std::find(cycle->begin(), cycle->end(), 0u) != cycle->end());
  EXPECT_TRUE(std::find(cycle->begin(), cycle->end(), 1u) != cycle->end());
}

TEST(ChannelGraph, FindsPlantedLongCycle) {
  // 0 -> 1 -> 2 -> 3 -> 4 -> 0 plus a dead-end branch.
  ChannelGraph g(6);
  for (ChannelId c = 0; c < 5; ++c) g.add_dependency(c, (c + 1) % 5);
  g.add_dependency(2, 5);
  const auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 5u);
  expect_is_cycle(g, *cycle);
}

TEST(ChannelGraph, ReportsDisjointCyclesOneAtATime) {
  // Two vertex-disjoint 2-cycles; filtering away the first must surface the
  // second.
  ChannelGraph g(6);
  g.add_dependency(0, 1);
  g.add_dependency(1, 0);
  g.add_dependency(4, 5);
  g.add_dependency(5, 4);
  const auto first = g.find_cycle();
  ASSERT_TRUE(first.has_value());
  expect_is_cycle(g, *first);
  const bool first_is_low = std::find(first->begin(), first->end(), 0u) != first->end();
  const auto second = g.find_cycle_if([&](ChannelId from, ChannelId) {
    return first_is_low ? from >= 4 : from < 4;
  });
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->size(), 2u);
  expect_is_cycle(g, *second);
  EXPECT_NE(first_is_low,
            std::find(second->begin(), second->end(), 0u) != second->end());
}

TEST(ChannelGraph, FindCycleIfCanBreakEveryCycle) {
  ChannelGraph g(3);
  g.add_dependency(0, 1);
  g.add_dependency(1, 2);
  g.add_dependency(2, 0);
  EXPECT_TRUE(g.find_cycle().has_value());
  EXPECT_FALSE(
      g.find_cycle_if([](ChannelId from, ChannelId to) { return !(from == 2 && to == 0); })
          .has_value());
}

TEST(ChannelGraph, EdgeTagsRecordProvenance) {
  ChannelGraph g(3);
  g.add_dependency(0, 1, 7);
  g.add_dependency(0, 1, 9);
  g.add_dependency(0, 1, 7);  // duplicate tag: not recorded twice
  g.add_dependency(1, 2);     // untagged edge
  EXPECT_EQ(g.num_dependencies(), 2u);
  const auto tags = g.edge_tags(0, 1);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], 7u);
  EXPECT_EQ(tags[1], 9u);
  EXPECT_TRUE(g.edge_tags(1, 2).empty());
  EXPECT_TRUE(g.edge_tags(2, 0).empty());  // absent edge
}

TEST(ChannelGraph, EdgeTagSetsSaturate) {
  ChannelGraph g(2);
  for (cdg::EdgeTag t = 0; t < 10; ++t) g.add_dependency(0, 1, t);
  EXPECT_EQ(g.edge_tags(0, 1).size(), ChannelGraph::kMaxTagsPerEdge);
  EXPECT_EQ(g.num_dependencies(), 1u);
}

// The bulk add merges a sorted target list into a row exactly as one
// add_dependency per target would: new edges before, between and after the
// existing ones, existing edges gaining the tag, full tag sets untouched.
TEST(ChannelGraph, BulkAddEqualsOneAddPerTarget) {
  constexpr std::uint32_t kChannels = 40;
  ChannelGraph bulk(kChannels);
  ChannelGraph single(kChannels);
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  for (cdg::EdgeTag tag = 0; tag < 400; ++tag) {
    const ChannelId from = next() % 4;
    std::vector<ChannelId> targets;
    for (ChannelId to = 0; to < kChannels; ++to) {
      if (next() % 5 == 0) targets.push_back(to);
    }
    bulk.add_dependencies(from, targets, tag % 7 == 0 ? cdg::kNoEdgeTag : tag);
    for (const ChannelId to : targets) {
      single.add_dependency(from, to, tag % 7 == 0 ? cdg::kNoEdgeTag : tag);
    }
  }
  ASSERT_EQ(bulk.num_dependencies(), single.num_dependencies());
  for (ChannelId c = 0; c < kChannels; ++c) {
    ASSERT_EQ(bulk.successors(c), single.successors(c)) << c;
    for (const ChannelId d : single.successors(c)) {
      const auto a = bulk.edge_tags(c, d);
      const auto b = single.edge_tags(c, d);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << c << " -> " << d;
    }
  }
}

TEST(Cdg, XFirstRoutingIsDeadlockFreeOnMesh) {
  // Fig. 2.5: the CDG of X-first routing has no cycle.
  const Mesh2D mesh(4, 4);
  const ChannelGraph g = cdg::build_unicast_cdg(mesh, cdg::xfirst_routing(mesh));
  EXPECT_TRUE(g.acyclic());
  EXPECT_GT(g.num_dependencies(), 0u);
}

TEST(Cdg, QuadrantTurnRoutingHasCycles) {
  // A deliberately bad deterministic routing that produces all four turn
  // types (east->north, north->west, west->south, south->east), closing
  // the classic four-channel cycle of Fig. 2.4: X-first in the NE/SW
  // quadrants, Y-first in the NW/SE quadrants.
  const Mesh2D mesh(3, 3);
  const auto bad = [&mesh](NodeId cur, NodeId dst) -> NodeId {
    if (cur == dst) return topo::kInvalidNode;
    const topo::Coord2 c = mesh.coord(cur);
    const topo::Coord2 d = mesh.coord(dst);
    const std::int32_t sx = d.x > c.x ? 1 : (d.x < c.x ? -1 : 0);
    const std::int32_t sy = d.y > c.y ? 1 : (d.y < c.y ? -1 : 0);
    if (sx == 0) return mesh.node(c.x, c.y + sy);
    if (sy == 0) return mesh.node(c.x + sx, c.y);
    const bool x_first = (sx > 0) == (sy > 0);  // NE & SW quadrants
    return x_first ? mesh.node(c.x + sx, c.y) : mesh.node(c.x, c.y + sy);
  };
  const ChannelGraph g = cdg::build_unicast_cdg(mesh, bad);
  EXPECT_FALSE(g.acyclic());
}

TEST(Cdg, EcubeRoutingIsDeadlockFreeOnCube) {
  const Hypercube cube(4);
  const ChannelGraph g = cdg::build_unicast_cdg(cube, cdg::ecube_routing(cube));
  EXPECT_TRUE(g.acyclic());
}

TEST(Cdg, ZFirstRoutingIsDeadlockFreeOnMesh3) {
  // Dimension-order routing stays deadlock-free on 3-D meshes.
  for (const Mesh3D& mesh : {Mesh3D(3, 3, 3), Mesh3D(2, 3, 4)}) {
    const ChannelGraph g = cdg::build_unicast_cdg(mesh, cdg::zfirst_routing(mesh));
    EXPECT_TRUE(g.acyclic()) << mesh.name();
    EXPECT_GT(g.num_dependencies(), 0u);
  }
}

TEST(Cdg, DimensionOrderRoutingIsDeadlockFreeWithoutWraparound) {
  const KAryNCube mesh_like(4, 3, /*wrap=*/false);
  const ChannelGraph g = cdg::build_unicast_cdg(mesh_like, cdg::dimension_order_routing(mesh_like));
  EXPECT_TRUE(g.acyclic());
}

TEST(Cdg, DimensionOrderRoutingIsDeadlockFreeOnTinyRings) {
  // With k = 3 the shorter ring direction is always a single hop, so the
  // wrap channels never chain: the CDG stays acyclic.
  const KAryNCube tiny(3, 2, /*wrap=*/true);
  const ChannelGraph g = cdg::build_unicast_cdg(tiny, cdg::dimension_order_routing(tiny));
  EXPECT_TRUE(g.acyclic());
}

TEST(Cdg, DimensionOrderRoutingCyclesOnWraparoundRings) {
  // The classic torus result: with k >= 4 the ring channels close a
  // dependency cycle, which motivates virtual channels.
  for (const KAryNCube& torus : {KAryNCube(4, 2, true), KAryNCube(5, 1, true)}) {
    const ChannelGraph g = cdg::build_unicast_cdg(torus, cdg::dimension_order_routing(torus));
    const auto cycle = g.find_cycle();
    ASSERT_TRUE(cycle.has_value()) << torus.name();
    expect_is_cycle(g, *cycle);
  }
}

TEST(Cdg, LabelRoutingSubnetworksAreAcyclic) {
  // The key deadlock-freedom argument of Chapter 6: R restricted to the
  // high (resp. low) channel subnetwork produces an acyclic CDG.
  const Mesh2D mesh(4, 4);
  const ham::MeshBoustrophedonLabeling mlab(mesh);
  for (const bool high : {true, false}) {
    const ChannelGraph g =
        cdg::build_unicast_cdg(mesh, cdg::label_routing(mesh, mlab, high));
    EXPECT_TRUE(g.acyclic()) << "mesh high=" << high;
  }

  const Hypercube cube(4);
  const ham::HypercubeGrayLabeling clab(cube);
  for (const bool high : {true, false}) {
    const ChannelGraph g =
        cdg::build_unicast_cdg(cube, cdg::label_routing(cube, clab, high));
    EXPECT_TRUE(g.acyclic()) << "cube high=" << high;
  }

  // Beyond the paper's two host topologies: the mixed-radix Gray labelings
  // extend the argument to 3-D meshes and k-ary n-cubes.
  const Mesh3D mesh3(3, 3, 2);
  const auto m3lab = ham::MixedRadixGrayLabeling::for_mesh3d(mesh3);
  for (const bool high : {true, false}) {
    const ChannelGraph g =
        cdg::build_unicast_cdg(mesh3, cdg::label_routing(mesh3, m3lab, high));
    EXPECT_TRUE(g.acyclic()) << "mesh3 high=" << high;
    EXPECT_GT(g.num_dependencies(), 0u) << "mesh3 high=" << high;
  }

  const KAryNCube torus(4, 2, /*wrap=*/true);
  const auto klab = ham::MixedRadixGrayLabeling::for_kary(torus);
  for (const bool high : {true, false}) {
    const ChannelGraph g =
        cdg::build_unicast_cdg(torus, cdg::label_routing(torus, klab, high));
    EXPECT_TRUE(g.acyclic()) << "kary high=" << high;
  }
}

TEST(Cdg, HighChannelSubnetworkIsAcyclicAsNodeGraph) {
  const Mesh2D mesh(6, 6);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh, [&](NodeId u, NodeId v) {
    return lab.label(u) < lab.label(v);
  }));
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh, [&](NodeId u, NodeId v) {
    return lab.label(u) > lab.label(v);
  }));
  // The whole network, by contrast, has node-graph cycles.
  EXPECT_FALSE(cdg::subnetwork_is_acyclic(mesh, [](NodeId, NodeId) { return true; }));

  // Same partition argument on a 3-D mesh labeling.
  const Mesh3D mesh3(3, 2, 3);
  const auto m3lab = ham::MixedRadixGrayLabeling::for_mesh3d(mesh3);
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh3, [&](NodeId u, NodeId v) {
    return m3lab.label(u) < m3lab.label(v);
  }));
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh3, [&](NodeId u, NodeId v) {
    return m3lab.label(u) > m3lab.label(v);
  }));
}

TEST(Cdg, QuadrantSubnetworksAreAcyclic) {
  // Section 6.2.1: each N_{sx,sy} quadrant subnetwork is acyclic.
  const Mesh2D mesh(4, 3);
  const auto in_quadrant = [&mesh](std::int32_t sx, std::int32_t sy) {
    return [&mesh, sx, sy](NodeId u, NodeId v) {
      const topo::Coord2 a = mesh.coord(u);
      const topo::Coord2 b = mesh.coord(v);
      return (b.x - a.x == sx && b.y == a.y) || (b.y - a.y == sy && b.x == a.x);
    };
  };
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh, in_quadrant(+1, +1)));
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh, in_quadrant(-1, +1)));
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh, in_quadrant(-1, -1)));
  EXPECT_TRUE(cdg::subnetwork_is_acyclic(mesh, in_quadrant(+1, -1)));
}

TEST(Cdg, RoutingFunctionSanityChecks) {
  const Mesh2D mesh(3, 3);
  // A routing function that returns non-neighbours must be rejected.
  const auto teleport = [](NodeId cur, NodeId dst) -> NodeId {
    return cur == dst ? topo::kInvalidNode : dst;
  };
  EXPECT_THROW(cdg::build_unicast_cdg(mesh, teleport), std::logic_error);
  // A non-terminating routing function must be rejected.
  const auto pingpong = [&mesh](NodeId cur, NodeId) -> NodeId {
    return mesh.neighbors(cur)[0];
  };
  EXPECT_THROW(cdg::build_unicast_cdg(mesh, pingpong), std::logic_error);
}

}  // namespace
