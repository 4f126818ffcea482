// The deadlock-free path-based multicast algorithms of Chapter 6:
// label routing function R, dual-path, multi-path, fixed-path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/dual_path.hpp"
#include "core/fixed_path.hpp"
#include "core/multi_path.hpp"
#include "core/routing_function.hpp"
#include "evsim/random.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/hypercube.hpp"
#include "topology/kary_ncube.hpp"
#include "topology/mesh2d.hpp"
#include "topology/mesh3d.hpp"

namespace {

using namespace mcnet;
using mcast::MulticastRequest;
using mcast::MulticastRoute;
using topo::Hypercube;
using topo::Mesh2D;
using topo::NodeId;

// The running example of Section 6.2.2 (Figures 6.13, 6.16, 6.17): a 6x6
// mesh, source (3,2), nine destinations.
MulticastRequest fig6_request(const Mesh2D& mesh) {
  return MulticastRequest{
      mesh.node(3, 2),
      {mesh.node(0, 0), mesh.node(0, 2), mesh.node(0, 5), mesh.node(1, 3), mesh.node(4, 5),
       mesh.node(5, 0), mesh.node(5, 1), mesh.node(5, 3), mesh.node(5, 4)}};
}

// --- Routing function R (Lemmas 6.1 / 6.4) ---------------------------------

template <typename Topo, typename Lab>
void expect_r_shortest_and_monotone(const Topo& t, const Lab& lab) {
  const mcast::LabelRouter router(t, lab);
  for (NodeId u = 0; u < t.num_nodes(); ++u) {
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      if (u == v) continue;
      NodeId cur = u;
      std::uint32_t hops = 0;
      std::uint32_t prev_label = lab.label(u);
      const bool high = lab.label(v) > lab.label(u);
      while (cur != v) {
        cur = router.next_hop(cur, v);
        const std::uint32_t l = lab.label(cur);
        // Partial-order preservation: labels strictly monotone.
        if (high) {
          ASSERT_GT(l, prev_label);
        } else {
          ASSERT_LT(l, prev_label);
        }
        prev_label = l;
        ++hops;
        ASSERT_LE(hops, t.num_nodes());
      }
      // Shortest path.
      EXPECT_EQ(hops, t.distance(u, v)) << u << " -> " << v;
    }
  }
}

TEST(LabelRouter, Lemma61MeshShortestMonotone) {
  for (const auto& [w, h] : {std::pair{4u, 3u}, {6u, 6u}, {5u, 4u}, {4u, 5u}}) {
    const Mesh2D mesh(w, h);
    const ham::MeshBoustrophedonLabeling lab(mesh);
    expect_r_shortest_and_monotone(mesh, lab);
  }
}

TEST(LabelRouter, Lemma64CubeShortestMonotone) {
  for (const std::uint32_t n : {2u, 3u, 4u, 5u}) {
    const Hypercube cube(n);
    const ham::HypercubeGrayLabeling lab(cube);
    expect_r_shortest_and_monotone(cube, lab);
  }
}

// The two-pass form of R that LabelRouter::next_hop replaced, kept as the
// reference: first the label-extremal neighbour among the monotone ones
// that move strictly closer (the repaired Lemma 6.4 rule), then the
// literal max/min-label rule.  `fell_back` reports that the second pass
// decided.
NodeId two_pass_next_hop(const topo::Topology& t, const ham::Labeling& lab, NodeId cur,
                         NodeId dst, bool& fell_back) {
  const std::uint32_t lc = lab.label(cur);
  const std::uint32_t ld = lab.label(dst);
  const std::uint32_t dist = t.distance(cur, dst);
  const bool high = lc < ld;
  fell_back = false;
  for (const bool require_shorter : {true, false}) {
    NodeId best = topo::kInvalidNode;
    std::uint32_t best_label = 0;
    for (const NodeId p : t.neighbors(cur)) {
      const std::uint32_t lp = lab.label(p);
      const bool monotone = high ? (lp > lc && lp <= ld) : (lp < lc && lp >= ld);
      if (!monotone) continue;
      if (require_shorter && t.distance(p, dst) >= dist) continue;
      if (best == topo::kInvalidNode || (high ? lp > best_label : lp < best_label)) {
        best = p;
        best_label = lp;
      }
    }
    if (best != topo::kInvalidNode) return best;
    fell_back = true;
  }
  return topo::kInvalidNode;
}

TEST(LabelRouter, OneScanEqualsTwoPassReference) {
  // Only kary:5x2 (wraparound rings of odd length) has pairs whose
  // monotone neighbours all fail to move closer, so the literal fallback
  // decides there: 106 of its 600 ordered pairs.
  const std::pair<const char*, std::uint32_t> cases[] = {
      {"mesh:8x8", 0},    {"mesh:7x5", 0}, {"cube:6", 0},   {"mesh3:4x4x4", 0},
      {"mesh3:3x5x2", 0}, {"kary:4x3", 0}, {"kary:5x2", 106}, {"karymesh:4x3", 0}};
  for (const auto& [spec, expected_fallbacks] : cases) {
    const analysis::Fixture f = analysis::make_fixture(spec);
    const topo::Topology& t = *f.topology;
    const ham::Labeling& lab = *f.labeling;
    for (std::uint32_t l = 0; l < lab.size(); ++l) {
      ASSERT_EQ(lab.label(lab.node_at(l)), l) << spec;
    }
    const mcast::LabelRouter router(t, lab);
    std::uint32_t fallbacks = 0;
    std::uint32_t mismatches = 0;
    for (NodeId u = 0; u < t.num_nodes(); ++u) {
      for (NodeId v = 0; v < t.num_nodes(); ++v) {
        if (u == v) continue;
        bool fell_back = false;
        const NodeId expected = two_pass_next_hop(t, lab, u, v, fell_back);
        fallbacks += fell_back ? 1 : 0;
        if (router.next_hop(u, v) != expected) {
          ++mismatches;
          ADD_FAILURE() << spec << ": R(" << u << ", " << v << ") = " << router.next_hop(u, v)
                        << ", two-pass reference " << expected;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << spec;
    EXPECT_EQ(fallbacks, expected_fallbacks) << spec;
  }
}

// The mixed-radix reflected-Gray label evaluated from a node's digits
// (dimension 0 least significant): most significant digit first, a digit
// reflected when the node digits above it have odd parity.
std::uint32_t gray_label_of_digits(const std::vector<std::uint32_t>& sizes,
                                   const std::vector<std::uint32_t>& digits) {
  std::uint32_t out = 0;
  bool reflect = false;
  for (std::size_t i = sizes.size(); i-- > 0;) {
    out = out * sizes[i] + (reflect ? sizes[i] - 1 - digits[i] : digits[i]);
    reflect ^= digits[i] % 2 == 1;
  }
  return out;
}

TEST(LabelRouter, MixedRadixTablesMatchDigitFormula) {
  const topo::Mesh3D mesh(3, 5, 2);
  const auto mesh_lab = ham::MixedRadixGrayLabeling::for_mesh3d(mesh);
  for (NodeId u = 0; u < mesh.num_nodes(); ++u) {
    const topo::Coord3 c = mesh.coord(u);
    const std::vector<std::uint32_t> digits = {static_cast<std::uint32_t>(c.x),
                                               static_cast<std::uint32_t>(c.y),
                                               static_cast<std::uint32_t>(c.z)};
    const std::uint32_t l = gray_label_of_digits({3, 5, 2}, digits);
    EXPECT_EQ(mesh_lab.label(u), l) << "mesh3 node " << u;
    EXPECT_EQ(mesh_lab.node_at(l), u) << "mesh3 label " << l;
  }
  const topo::KAryNCube kary(5, 2);
  const auto kary_lab = ham::MixedRadixGrayLabeling::for_kary(kary);
  for (NodeId u = 0; u < kary.num_nodes(); ++u) {
    const std::vector<std::uint32_t> digits = {kary.digit(u, 0), kary.digit(u, 1)};
    const std::uint32_t l = gray_label_of_digits({5, 5}, digits);
    EXPECT_EQ(kary_lab.label(u), l) << "kary node " << u;
    EXPECT_EQ(kary_lab.node_at(l), u) << "kary label " << l;
  }
}

// --- Dual-path --------------------------------------------------------------

TEST(DualPath, PaperExampleTraffic33) {
  // Fig. 6.13: 18 channels in the high network, 15 in the low network,
  // maximum source-to-destination distance 18 hops.
  const Mesh2D mesh(6, 6);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  const MulticastRequest req = fig6_request(mesh);
  const MulticastRoute route = dual_path_route(mesh, lab, req);
  verify_route(mesh, req, route);
  ASSERT_EQ(route.paths.size(), 2u);
  EXPECT_EQ(route.paths[0].hops(), 18u);  // high
  EXPECT_EQ(route.paths[1].hops(), 15u);  // low
  EXPECT_EQ(route.traffic(), 33u);
  EXPECT_EQ(route.max_delivery_hops(), 18u);
}

TEST(DualPath, PreparationSplitMatchesPaper) {
  const Mesh2D mesh(6, 6);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  mcast::DualPathSplit split;
  dual_path_prepare(lab, fig6_request(mesh), split);
  EXPECT_EQ(split.high,
            (std::vector<NodeId>{mesh.node(5, 3), mesh.node(1, 3), mesh.node(5, 4),
                                 mesh.node(4, 5), mesh.node(0, 5)}));
  EXPECT_EQ(split.low, (std::vector<NodeId>{mesh.node(0, 2), mesh.node(5, 1),
                                            mesh.node(5, 0), mesh.node(0, 0)}));
}

void expect_paths_label_monotone(const topo::Topology&, const ham::Labeling& lab,
                                 const MulticastRoute& route) {
  for (const auto& p : route.paths) {
    for (std::size_t i = 0; i + 1 < p.nodes.size(); ++i) {
      if (p.channel_class == mcast::kHighChannelClass) {
        EXPECT_LT(lab.label(p.nodes[i]), lab.label(p.nodes[i + 1]));
      } else {
        EXPECT_GT(lab.label(p.nodes[i]), lab.label(p.nodes[i + 1]));
      }
    }
  }
}

TEST(DualPath, PathsConfinedToTheirSubnetworks) {
  const Mesh2D mesh(8, 8);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  evsim::Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 20);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    const MulticastRoute route = dual_path_route(mesh, lab, req);
    verify_route(mesh, req, route);
    expect_paths_label_monotone(mesh, lab, route);
  }
}

TEST(DualPath, CubeExampleFig619) {
  // Section 6.3: 4-cube, source 1100, destinations 0100, 0011, 0111, 1000,
  // 1111.  D_L = {0100, 0111, 0011}, D_H = {1111, 1000}; the high path's
  // first hop is 1101.
  const Hypercube cube(4);
  const ham::HypercubeGrayLabeling lab(cube);
  const MulticastRequest req{0b1100, {0b0100, 0b0011, 0b0111, 0b1000, 0b1111}};
  mcast::DualPathSplit split;
  dual_path_prepare(lab, req, split);
  EXPECT_EQ(split.high, (std::vector<NodeId>{0b1111, 0b1000}));
  EXPECT_EQ(split.low, (std::vector<NodeId>{0b0100, 0b0111, 0b0011}));
  const MulticastRoute route = dual_path_route(cube, lab, req);
  verify_route(cube, req, route);
  ASSERT_EQ(route.paths.size(), 2u);
  EXPECT_EQ(route.paths[0].nodes[1], 0b1101u);  // routing function picks 1101
  expect_paths_label_monotone(cube, lab, route);
}

TEST(DualPath, AtMostTwoPaths) {
  const Hypercube cube(6);
  const ham::HypercubeGrayLabeling lab(cube);
  evsim::Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId src = rng.uniform_int(0, cube.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 40);
    const MulticastRequest req{src, rng.sample_destinations(cube.num_nodes(), src, k)};
    const MulticastRoute route = dual_path_route(cube, lab, req);
    verify_route(cube, req, route);
    EXPECT_LE(route.paths.size(), 2u);
    expect_paths_label_monotone(cube, lab, route);
  }
}

// --- Multi-path -------------------------------------------------------------

TEST(MultiPath, PaperExampleSplitAndDistance) {
  // Fig. 6.16: D_H1 = {(5,3),(5,4),(4,5)}, D_H2 = {(1,3),(0,5)}; four paths
  // total; the maximum source-to-destination distance drops to 6 hops.
  const Mesh2D mesh(6, 6);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  const MulticastRequest req = fig6_request(mesh);
  const MulticastRoute route = multi_path_route(mesh, lab, req);
  verify_route(mesh, req, route);
  EXPECT_EQ(route.paths.size(), 4u);
  EXPECT_EQ(route.max_delivery_hops(), 6u);
  // The paper reports 20 channels for this example; the minimum attainable
  // with its own destination partition is 21 (every leg below is already a
  // shortest path), which is what the implementation produces.
  EXPECT_EQ(route.traffic(), 21u);
  EXPECT_LT(route.traffic(), 33u);  // well below dual-path
  expect_paths_label_monotone(mesh, lab, route);
}

TEST(MultiPath, AtMostFourPathsOnMesh) {
  const Mesh2D mesh(8, 8);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  evsim::Rng rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 30);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    const MulticastRoute route = multi_path_route(mesh, lab, req);
    verify_route(mesh, req, route);
    EXPECT_LE(route.paths.size(), 4u);
    expect_paths_label_monotone(mesh, lab, route);
  }
}

TEST(MultiPath, CubePathsStartAtDistinctNeighbors) {
  const Hypercube cube(4);
  const ham::HypercubeGrayLabeling lab(cube);
  // Fig. 6.21's setup: source 1100, same destinations as the dual example.
  const MulticastRequest req{0b1100, {0b0100, 0b0011, 0b0111, 0b1000, 0b1111}};
  const MulticastRoute route = multi_path_route(cube, lab, req);
  verify_route(cube, req, route);
  EXPECT_GE(route.paths.size(), 2u);
  EXPECT_LE(route.paths.size(), 2u * cube.dimensions());
  std::vector<NodeId> first_hops;
  for (const auto& p : route.paths) first_hops.push_back(p.nodes[1]);
  std::sort(first_hops.begin(), first_hops.end());
  EXPECT_EQ(std::adjacent_find(first_hops.begin(), first_hops.end()), first_hops.end())
      << "paths must leave through distinct neighbours";
  expect_paths_label_monotone(cube, lab, route);
}

TEST(MultiPath, CubeBucketsRespectNeighborLabelRanges) {
  const Hypercube cube(5);
  const ham::HypercubeGrayLabeling lab(cube);
  evsim::Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId src = rng.uniform_int(0, cube.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 20);
    const MulticastRequest req{src, rng.sample_destinations(cube.num_nodes(), src, k)};
    const MulticastRoute route = multi_path_route(cube, lab, req);
    verify_route(cube, req, route);
    expect_paths_label_monotone(cube, lab, route);
    // Every path's destinations lie in the label range owned by its first
    // hop (Fig. 6.20 step 3).
    for (const auto& p : route.paths) {
      const std::uint32_t lfirst = lab.label(p.nodes[1]);
      const bool high = p.channel_class == mcast::kHighChannelClass;
      for (const std::uint32_t hdel : p.delivery_hops) {
        const std::uint32_t l = lab.label(p.nodes[hdel]);
        if (high) {
          EXPECT_GE(l, lfirst);
        } else {
          EXPECT_LE(l, lfirst);
        }
      }
    }
  }
}

// --- Fixed-path -------------------------------------------------------------

TEST(FixedPath, PaperExampleTraffic35) {
  // Fig. 6.17: 20 high + 15 low = 35 channels, max distance 20 hops.
  const Mesh2D mesh(6, 6);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  const MulticastRequest req = fig6_request(mesh);
  const MulticastRoute route = fixed_path_route(mesh, lab, req);
  verify_route(mesh, req, route);
  ASSERT_EQ(route.paths.size(), 2u);
  EXPECT_EQ(route.paths[0].hops(), 20u);
  EXPECT_EQ(route.paths[1].hops(), 15u);
  EXPECT_EQ(route.traffic(), 35u);
  EXPECT_EQ(route.max_delivery_hops(), 20u);
}

TEST(FixedPath, VisitsEveryLabelInOrder) {
  const Hypercube cube(4);
  const ham::HypercubeGrayLabeling lab(cube);
  const MulticastRequest req{0b1100, {0b0100, 0b1111}};
  const MulticastRoute route = fixed_path_route(cube, lab, req);
  verify_route(cube, req, route);
  for (const auto& p : route.paths) {
    for (std::size_t i = 0; i + 1 < p.nodes.size(); ++i) {
      const std::int64_t diff = static_cast<std::int64_t>(lab.label(p.nodes[i + 1])) -
                                static_cast<std::int64_t>(lab.label(p.nodes[i]));
      EXPECT_EQ(std::abs(diff), 1) << "fixed path must follow the Hamiltonian path";
    }
  }
}

TEST(FixedPath, TrafficIsLabelSpan) {
  const Mesh2D mesh(8, 8);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  evsim::Rng rng(59);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 20);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    const MulticastRoute route = fixed_path_route(mesh, lab, req);
    verify_route(mesh, req, route);
    std::uint32_t lmax = lab.label(src), lmin = lab.label(src);
    for (const NodeId d : req.destinations) {
      lmax = std::max(lmax, lab.label(d));
      lmin = std::min(lmin, lab.label(d));
    }
    EXPECT_EQ(route.traffic(), (lmax - lab.label(src)) + (lab.label(src) - lmin));
  }
}

TEST(FixedPath, NeverBeatsDualPathAndConvergesForLargeSets) {
  // Dual-path shortcuts through the mesh, fixed-path walks every label:
  // dual <= fixed always; for very large destination sets they coincide.
  const Mesh2D mesh(8, 8);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  evsim::Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 30);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    EXPECT_LE(dual_path_route(mesh, lab, req).traffic(),
              fixed_path_route(mesh, lab, req).traffic());
  }
  // All 63 destinations: both traverse the whole Hamiltonian path.
  MulticastRequest all{0, {}};
  for (NodeId d = 1; d < mesh.num_nodes(); ++d) all.destinations.push_back(d);
  EXPECT_EQ(dual_path_route(mesh, lab, all).traffic(),
            fixed_path_route(mesh, lab, all).traffic());
}

}  // namespace
