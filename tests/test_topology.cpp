#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "topology/hypercube.hpp"
#include "topology/kary_ncube.hpp"
#include "topology/mesh2d.hpp"
#include "topology/mesh3d.hpp"
#include "topology/spec.hpp"

namespace {

using namespace mcnet::topo;

TEST(Mesh2D, BasicShape) {
  const Mesh2D m(4, 3);
  EXPECT_EQ(m.num_nodes(), 12u);
  EXPECT_EQ(m.width(), 4u);
  EXPECT_EQ(m.height(), 3u);
  EXPECT_EQ(m.max_degree(), 4u);
  EXPECT_EQ(m.diameter(), 5u);
  // 2 * (links): horizontal 3*3=9, vertical 4*2=8 -> 17 links, 34 channels.
  EXPECT_EQ(m.num_channels(), 34u);
}

TEST(Mesh2D, CoordinateRoundTrip) {
  const Mesh2D m(7, 5);
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    EXPECT_EQ(m.node(m.coord(u)), u);
  }
}

TEST(Mesh2D, NeighborsAreAdjacentAtDistanceOne) {
  const Mesh2D m(5, 4);
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    for (const NodeId v : m.neighbors(u)) {
      EXPECT_EQ(m.distance(u, v), 1u);
      EXPECT_TRUE(m.adjacent(u, v));
      EXPECT_TRUE(m.adjacent(v, u));
    }
  }
}

TEST(Mesh2D, CornerAndInteriorDegrees) {
  const Mesh2D m(4, 4);
  EXPECT_EQ(m.neighbors(m.node(0, 0)).size(), 2u);
  EXPECT_EQ(m.neighbors(m.node(1, 0)).size(), 3u);
  EXPECT_EQ(m.neighbors(m.node(1, 1)).size(), 4u);
}

TEST(Mesh2D, ChannelIdsAreDenseAndInvertible) {
  const Mesh2D m(3, 3);
  std::set<ChannelId> seen;
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    for (const NodeId v : m.neighbors(u)) {
      const ChannelId c = m.channel(u, v);
      ASSERT_NE(c, kInvalidChannel);
      EXPECT_TRUE(seen.insert(c).second) << "duplicate channel id";
      const ChannelEnds ends = m.channel_ends(c);
      EXPECT_EQ(ends.from, u);
      EXPECT_EQ(ends.to, v);
    }
  }
  EXPECT_EQ(seen.size(), m.num_channels());
  EXPECT_EQ(m.channel(0, 5), kInvalidChannel);  // non-edge
}

TEST(Mesh2D, ManhattanDistance) {
  const Mesh2D m(8, 8);
  EXPECT_EQ(m.distance(m.node(0, 0), m.node(7, 7)), 14u);
  EXPECT_EQ(m.distance(m.node(2, 3), m.node(2, 3)), 0u);
  EXPECT_EQ(m.distance(m.node(1, 5), m.node(4, 2)), 6u);
}

TEST(Mesh2D, ClosestOnShortestPathsClampsToBox) {
  const Mesh2D m(8, 8);
  // Bundle between (2,5) and (0,5) is the row segment x in [0,2], y = 5.
  EXPECT_EQ(m.closest_on_shortest_paths(m.node(2, 5), m.node(0, 5), m.node(2, 3)),
            m.node(2, 5));
  // Interior clamp: w inside the box projects to itself.
  EXPECT_EQ(m.closest_on_shortest_paths(m.node(0, 0), m.node(5, 5), m.node(3, 2)),
            m.node(3, 2));
  // The paper's Section 5.4 example: nearest node to [2,3] on paths
  // between [2,7] and [0,5] is [2,5].
  EXPECT_EQ(m.closest_on_shortest_paths(m.node(2, 7), m.node(0, 5), m.node(2, 3)),
            m.node(2, 5));
}

TEST(Mesh2D, ClosestOnShortestPathsIsOptimal) {
  // Exhaustive check on a small mesh: the clamp really is the closest node
  // of the shortest-path bundle.
  const Mesh2D m(5, 4);
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      for (NodeId w = 0; w < m.num_nodes(); ++w) {
        const NodeId v = m.closest_on_shortest_paths(s, t, w);
        // v lies on a shortest path.
        EXPECT_EQ(m.distance(s, v) + m.distance(v, t), m.distance(s, t));
        // No bundle node is closer to w.
        for (NodeId x = 0; x < m.num_nodes(); ++x) {
          if (m.distance(s, x) + m.distance(x, t) == m.distance(s, t)) {
            EXPECT_LE(m.distance(w, v), m.distance(w, x));
          }
        }
      }
    }
  }
}

TEST(Mesh3D, BasicShape) {
  const Mesh3D m(3, 4, 3);
  EXPECT_EQ(m.num_nodes(), 36u);
  EXPECT_EQ(m.diameter(), 7u);
  EXPECT_EQ(m.max_degree(), 6u);  // interior node needs >= 3 layers per axis
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    EXPECT_EQ(m.node(m.coord(u)), u);
    for (const NodeId v : m.neighbors(u)) EXPECT_EQ(m.distance(u, v), 1u);
  }
}

TEST(Mesh3D, ClosestOnShortestPathsIsOptimal) {
  const Mesh3D m(3, 3, 2);
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      for (NodeId w = 0; w < m.num_nodes(); ++w) {
        const NodeId v = m.closest_on_shortest_paths(s, t, w);
        EXPECT_EQ(m.distance(s, v) + m.distance(v, t), m.distance(s, t));
      }
    }
  }
}

TEST(Hypercube, BasicShape) {
  const Hypercube h(4);
  EXPECT_EQ(h.num_nodes(), 16u);
  EXPECT_EQ(h.num_channels(), 64u);  // 16 nodes * 4 out-channels
  EXPECT_EQ(h.diameter(), 4u);
  EXPECT_EQ(h.max_degree(), 4u);
}

TEST(Hypercube, HammingDistance) {
  const Hypercube h(5);
  EXPECT_EQ(h.distance(0b00000, 0b11111), 5u);
  EXPECT_EQ(h.distance(0b10101, 0b10101), 0u);
  EXPECT_EQ(h.distance(0b10100, 0b00101), 2u);
}

TEST(Hypercube, NeighborsDifferInOneBit) {
  const Hypercube h(4);
  for (NodeId u = 0; u < h.num_nodes(); ++u) {
    std::set<NodeId> nbrs(h.neighbors(u).begin(), h.neighbors(u).end());
    EXPECT_EQ(nbrs.size(), 4u);
    for (const NodeId v : nbrs) {
      EXPECT_EQ(std::popcount(u ^ v), 1);
    }
  }
}

TEST(Hypercube, ClosestOnShortestPathsBitMerge) {
  const Hypercube h(6);
  // Section 5.2: bit j of the answer is w's bit where s and t differ, s's
  // bit where they agree.
  const NodeId s = 0b000110, t = 0b010101, w = 0b000001;
  EXPECT_EQ(h.closest_on_shortest_paths(s, t, w), 0b000101u);
}

TEST(Hypercube, ClosestOnShortestPathsIsOptimal) {
  const Hypercube h(4);
  for (NodeId s = 0; s < h.num_nodes(); ++s) {
    for (NodeId t = 0; t < h.num_nodes(); ++t) {
      for (NodeId w = 0; w < h.num_nodes(); ++w) {
        const NodeId v = h.closest_on_shortest_paths(s, t, w);
        EXPECT_EQ(h.distance(s, v) + h.distance(v, t), h.distance(s, t));
        for (NodeId x = 0; x < h.num_nodes(); ++x) {
          if (h.distance(s, x) + h.distance(x, t) == h.distance(s, t)) {
            EXPECT_LE(h.distance(w, v), h.distance(w, x));
          }
        }
      }
    }
  }
}

TEST(KAryNCube, HypercubeIsSpecialCase) {
  const KAryNCube k2(2, 4);
  const Hypercube h(4);
  ASSERT_EQ(k2.num_nodes(), h.num_nodes());
  for (NodeId u = 0; u < h.num_nodes(); ++u) {
    std::set<NodeId> a(k2.neighbors(u).begin(), k2.neighbors(u).end());
    std::set<NodeId> b(h.neighbors(u).begin(), h.neighbors(u).end());
    EXPECT_EQ(a, b) << "node " << u;
    for (NodeId v = 0; v < h.num_nodes(); ++v) EXPECT_EQ(k2.distance(u, v), h.distance(u, v));
  }
}

TEST(KAryNCube, TorusWrapDistance) {
  const KAryNCube t(5, 2, /*wrap=*/true);
  EXPECT_EQ(t.num_nodes(), 25u);
  // digits (0,0) vs (4,4): wrap distance 1 per dimension.
  EXPECT_EQ(t.distance(0, 24), 2u);
  EXPECT_EQ(t.diameter(), 4u);
}

TEST(KAryNCube, NonWrapMatchesMesh) {
  const KAryNCube k(4, 2, /*wrap=*/false);
  const Mesh2D m(4, 4);
  ASSERT_EQ(k.num_nodes(), m.num_nodes());
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    for (NodeId v = 0; v < m.num_nodes(); ++v) {
      EXPECT_EQ(k.distance(u, v), m.distance(u, v));
    }
  }
}

TEST(KAryNCube, DigitManipulation) {
  const KAryNCube k(3, 3);
  const NodeId u = 1 * 9 + 2 * 3 + 0;  // digits (z=1, y=2, x=0)
  EXPECT_EQ(k.digit(u, 0), 0u);
  EXPECT_EQ(k.digit(u, 1), 2u);
  EXPECT_EQ(k.digit(u, 2), 1u);
  EXPECT_EQ(k.with_digit(u, 0, 2), u + 2);
}

TEST(Topology, InvalidConstruction) {
  EXPECT_THROW(Mesh2D(0, 4), std::invalid_argument);
  EXPECT_THROW(Mesh3D(2, 0, 2), std::invalid_argument);
  EXPECT_THROW(Hypercube(0), std::invalid_argument);
  EXPECT_THROW(Hypercube(25), std::invalid_argument);
  EXPECT_THROW(KAryNCube(1, 2), std::invalid_argument);
}

// `spec` must throw std::invalid_argument whose message contains `part`.
void expect_rejected(const std::string& spec, const std::string& part) {
  try {
    (void)make_topology(spec);
    ADD_FAILURE() << spec << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(part), std::string::npos) << spec << ": " << e.what();
  }
}

TEST(TopologySpec, NodeCountsAboveTheCapAreRejectedByName) {
  // In 32 bits 65536 x 65536 wraps to a 0-node mesh and 65537 x 65536 to
  // a 65536-node one with out-of-range adjacency; every shape above 2^22
  // nodes must fail naming its dimensions, before anything is allocated.
  expect_rejected("mesh:65536x65536",
                  "mesh 65536x65536 exceeds the topology limit of 4194304 nodes");
  expect_rejected("mesh:65537x65536", "mesh 65537x65536 exceeds the topology limit");
  expect_rejected("mesh:4194305x1", "mesh 4194305x1 exceeds the topology limit");
  expect_rejected("mesh3:2048x2048x1024",
                  "mesh3 2048x2048x1024 exceeds the topology limit of 4194304 nodes");
  expect_rejected("mesh3:4294967295x4294967295x4294967295", "exceeds the topology limit");
  expect_rejected("mesh3:1x1x4194305", "mesh3 1x1x4194305 exceeds the topology limit");
  EXPECT_EQ(make_topology("mesh:2048x16")->num_nodes(), 2048u * 16u);
}

TEST(TopologySpec, OversizedCubesNameTheirShapeAndTheLimit) {
  expect_rejected("kary:2048x3",
                  "k-ary n-cube 2048x3 exceeds the topology limit of 4194304 nodes");
  expect_rejected("karymesh:2048x3", "k-ary n-cube 2048x3 exceeds the topology limit");
  expect_rejected("kary:2x23", "k-ary n-cube 2x23 exceeds the topology limit of 4194304 nodes");
  expect_rejected("kary:4294967295x1", "k-ary n-cube 4294967295x1 exceeds the topology limit");
  expect_rejected("cube:25", "hypercube dimension 25 must be in [1, 20]");
  expect_rejected("cube:0", "hypercube dimension 0 must be in [1, 20]");
  EXPECT_EQ(make_topology("kary:8x3")->num_nodes(), 512u);
}

TEST(TopologySpec, DimensionsAreDigitsOnly) {
  for (const char* spec : {"mesh:4x4x", "mesh:+4x4", "mesh: 4x4", "mesh:4x 4", "mesh:4x4 ",
                           "mesh:-0x4", "mesh:x4", "mesh:4xx4", "mesh:", "cube:+3",
                           "mesh3:2x2x2x", "kary:4x2x", "mesh:4294967296x1"}) {
    expect_rejected(spec, "bad dimension");
  }
  EXPECT_EQ(make_topology("mesh:4x3")->num_nodes(), 12u);
  EXPECT_EQ(make_topology("mesh3:2x3x4")->num_nodes(), 24u);
  EXPECT_EQ(make_topology("cube:3")->num_nodes(), 8u);
  EXPECT_EQ(make_topology("kary:4x2")->num_nodes(), 16u);
}

}  // namespace
