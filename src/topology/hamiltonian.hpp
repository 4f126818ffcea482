// Hamiltonian-path labelings and Hamiltonian cycles.
//
// Two constructions from the paper:
//
//  * Node labelings l(v) based on a Hamiltonian path (Section 6.2.2 for
//    the 2-D mesh, Section 6.3 for the hypercube).  The labeling splits the
//    network into an acyclic high-channel subnetwork (channels from lower
//    to higher labels) and an acyclic low-channel subnetwork; the
//    label-order-preserving routing function R routes on shortest paths
//    within one subnetwork, which is what makes the dual-/multi-/fixed-path
//    multicast algorithms deadlock-free.
//
//  * Hamiltonian cycles with a position map h (Section 5.1, Tables 5.1 and
//    5.3) used by the sorted-MP/MC heuristics: f(v) is the position of v
//    along the cycle starting from the source.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "topology/hypercube.hpp"
#include "topology/kary_ncube.hpp"
#include "topology/mesh2d.hpp"
#include "topology/mesh3d.hpp"
#include "topology/topology.hpp"

namespace mcnet::ham {

using topo::NodeId;

/// A bijection between nodes and label values 0..N-1 induced by a
/// Hamiltonian path: consecutive labels are adjacent nodes.  Each subclass
/// evaluates its label formula once per node at construction; lookups
/// read the label table and its inverse.
class Labeling {
 public:
  virtual ~Labeling() = default;
  /// Label of node `u` (its position along the Hamiltonian path).
  [[nodiscard]] std::uint32_t label(NodeId u) const { return label_[u]; }
  /// Node carrying label `l` (inverse of label()).
  [[nodiscard]] NodeId node_at(std::uint32_t l) const { return node_[l]; }
  /// Number of nodes N.
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(label_.size()); }

 protected:
  /// `labels[u]` is the label of node u.  Throws std::invalid_argument
  /// unless the labels are a permutation of 0..N-1.
  explicit Labeling(std::vector<std::uint32_t> labels);
  Labeling(const Labeling&) = default;
  Labeling(Labeling&&) = default;
  Labeling& operator=(const Labeling&) = default;
  Labeling& operator=(Labeling&&) = default;

 private:
  std::vector<std::uint32_t> label_;  // node id -> label
  std::vector<NodeId> node_;          // label -> node id
};

/// Boustrophedon (snake) labeling of an N1 x N2 mesh, the paper's
///   l(x, y) = y*n + x        if y even
///   l(x, y) = y*n + n - x - 1 if y odd          (n = mesh width).
class MeshBoustrophedonLabeling final : public Labeling {
 public:
  explicit MeshBoustrophedonLabeling(const topo::Mesh2D& mesh);

  [[nodiscard]] const topo::Mesh2D& mesh() const { return *mesh_; }

 private:
  const topo::Mesh2D* mesh_;
};

/// The paper's hypercube labeling (Section 6.3):
///   l(d_{n-1}..d_0) = sum_i (c_i * !d_i + !c_i * d_i) * 2^i,
///   c_{n-1} = 0, c_{n-j} = d_{n-1} xor ... xor d_{n-j+1},
/// which is exactly the inverse binary-reflected-Gray-code map: nodes in
/// label order form the Gray-code Hamiltonian path.
class HypercubeGrayLabeling final : public Labeling {
 public:
  explicit HypercubeGrayLabeling(const topo::Hypercube& cube);

  [[nodiscard]] const topo::Hypercube& cube() const { return *cube_; }

  /// Gray-code decode: b_i = g_{n-1} xor ... xor g_i.
  [[nodiscard]] static std::uint32_t gray_decode(std::uint32_t g) {
    std::uint32_t b = 0;
    for (; g != 0; g >>= 1) b ^= g;
    return b;
  }

  /// The paper's label formula evaluated literally (used in tests to prove
  /// it coincides with the Gray-code decode above).
  [[nodiscard]] static std::uint32_t paper_label(std::uint32_t address, std::uint32_t n);

 private:
  const topo::Hypercube* cube_;
};

/// Mixed-radix reflected-Gray labeling: the generalisation of both the
/// mesh boustrophedon (2 dimensions) and the hypercube Gray labeling
/// (radix 2) to any k-ary n-cube or box-shaped mesh.  Digits are processed
/// from the most significant dimension down; a digit is reflected whenever
/// the sum of the more significant *output* digits is odd, which makes
/// consecutive labels differ by +/-1 in exactly one digit -- a Hamiltonian
/// path in the (non-wraparound) box graph.  This extends the Chapter 6
/// path-based multicast algorithms to 3-D meshes and k-ary n-cubes
/// (Section 8.2: "these routing algorithms can be applied to any
/// multicomputer networks that have Hamilton paths").
class MixedRadixGrayLabeling final : public Labeling {
 public:
  /// `sizes[i]` is the extent of dimension i (dimension 0 least
  /// significant); nodes are 0..prod(sizes)-1 and `digit_of(node, dim)`
  /// gives a node's digit in dimension dim.
  MixedRadixGrayLabeling(const std::vector<std::uint32_t>& sizes,
                         const std::function<std::uint32_t(NodeId, std::uint32_t)>& digit_of);

  /// Convenience constructors for the shipped topologies.
  [[nodiscard]] static MixedRadixGrayLabeling for_mesh3d(const topo::Mesh3D& mesh);
  [[nodiscard]] static MixedRadixGrayLabeling for_kary(const topo::KAryNCube& cube);
};

/// The labeling the Chapter 6 algorithms use on `topology`: boustrophedon
/// on a 2-D mesh, Gray on a hypercube, mixed-radix Gray on a 3-D mesh or
/// k-ary n-cube; nullptr for any other topology.  The labeling may keep a
/// reference to `topology`.
[[nodiscard]] std::unique_ptr<Labeling> make_labeling(const topo::Topology& topology);

/// A Hamiltonian cycle with its position map h: h(order()[i]) == i.
/// Validates adjacency of consecutive nodes (including the closing edge).
class HamiltonCycle {
 public:
  HamiltonCycle(const topo::Topology& topology, std::vector<NodeId> order);

  /// Nodes in cycle order.
  [[nodiscard]] const std::vector<NodeId>& order() const { return order_; }
  /// Position of node `u` along the cycle (0-based h map).
  [[nodiscard]] std::uint32_t position(NodeId u) const { return position_[u]; }
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(order_.size()); }

  /// Cyclic sort key relative to a source: f(v) = (h(v) - h(u0)) mod N,
  /// so f(u0) = 0 and f increases along the cycle from the source.  This is
  /// the paper's f shifted by -h(u0), which preserves all comparisons.
  [[nodiscard]] std::uint32_t key_from(NodeId source, NodeId v) const {
    const std::uint32_t n = size();
    return (position_[v] + n - position_[source]) % n;
  }

 private:
  std::vector<NodeId> order_;
  std::vector<std::uint32_t> position_;  // indexed by node id
};

/// The comb-shaped Hamiltonian cycle of an N1 x N2 mesh used in Table 5.1:
/// row 0 left-to-right, rows 1..N2-1 serpentine over columns 1..N1-1, then
/// return down column 0.  Requires at least one even dimension (fact F1);
/// the construction transposes automatically when only the width is even.
[[nodiscard]] HamiltonCycle mesh_comb_cycle(const topo::Mesh2D& mesh);

/// The binary-reflected-Gray-code Hamiltonian cycle of an n-cube
/// (Table 5.3): node at position i is i ^ (i >> 1).
[[nodiscard]] HamiltonCycle hypercube_gray_cycle(const topo::Hypercube& cube);

/// True if directed channel (from, to) belongs to the high-channel
/// subnetwork induced by `lab` (labels increase across it).
[[nodiscard]] inline bool is_high_channel(const Labeling& lab, NodeId from, NodeId to) {
  return lab.label(from) < lab.label(to);
}

}  // namespace mcnet::ham
