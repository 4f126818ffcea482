// Multi-path deadlock-free multicast routing (Section 6.2.2, Figures 6.14
// and 6.15 for the 2-D mesh; Fig. 6.20 for the hypercube).
//
// The dual-path split is refined further: on a mesh, D_H is divided by the
// x-coordinates of the two higher-labeled neighbours of the source (each
// sublist addressed through its neighbour); symmetrically for D_L, giving
// up to four path worms.  On an n-cube, the higher-labeled neighbours
// v_1 < v_2 < ... partition D_H into label ranges
// [l(v_i), l(v_{i+1})), giving up to n worms per side.  All worms stay in
// one acyclic subnetwork, so the scheme is deadlock-free (Assertion 3 /
// Corollary 6.2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dual_path.hpp"
#include "core/routing_function.hpp"

namespace mcnet::mcast {

/// One path worm of the multi-path split, before routing: the channel class
/// it travels in, an optional forced first hop (the source neighbour that
/// owns the bucket), and the label-ordered targets it serves.  Exposed so
/// the relation-based analyzer can explore every legal path of each worm
/// instead of the one deterministic route R picks.
struct MultiPathWorm {
  std::uint8_t channel_class = 0;
  std::optional<topo::NodeId> first_hop;
  std::vector<topo::NodeId> targets;
};

/// Splits a request into multi-path worms.  On a 2-D mesh with its
/// boustrophedon labeling each side of the dual-path split is divided by
/// the x-coordinates of the source's two same-side neighbours (Fig. 6.14);
/// on any other labeled topology each side is bucketed by the label ranges
/// of the source's same-side neighbours (Fig. 6.20).
[[nodiscard]] std::vector<MultiPathWorm> multi_path_prepare(const topo::Topology& topology,
                                                            const ham::Labeling& labeling,
                                                            const MulticastRequest& request);

/// Multi-path routing on any topology with a Hamiltonian labeling (2-D and
/// 3-D meshes, hypercubes, k-ary n-cubes): the worms of
/// multi_path_prepare(), each routed by R.  Deadlock-free by the same
/// subnetwork argument on every topology.
[[nodiscard]] MulticastRoute multi_path_route(const topo::Topology& topology,
                                              const ham::Labeling& labeling,
                                              const MulticastRequest& request);

}  // namespace mcnet::mcast
