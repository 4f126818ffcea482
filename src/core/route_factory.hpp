// Uniform access to every multicast routing algorithm in the library, for
// benches, examples and the wormhole simulator.  A suite owns the labeling
// and Hamiltonian-cycle state an algorithm family needs, so callers only
// keep the topology alive.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "cdg/channel_graph.hpp"
#include "core/multicast.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"

namespace mcnet::mcast {

enum class Algorithm {
  kMultiUnicast,    // baseline: one unicast per destination
  kBroadcast,       // baseline: full broadcast tree, deliver at destinations
  kSortedMP,        // Ch. 5 multicast path
  kSortedMC,        // Ch. 5 multicast cycle
  kGreedyST,        // Ch. 5 Steiner-tree heuristic
  kXFirstMT,        // Ch. 5 X-first multicast tree (mesh; deadlock-prone worm tree)
  kDividedGreedyMT, // Ch. 5 divided greedy multicast tree (mesh)
  kLenTree,         // LEN greedy tree (hypercube baseline)
  kDualPath,        // Ch. 6 dual-path (deadlock-free)
  kMultiPath,       // Ch. 6 multi-path (deadlock-free)
  kFixedPath,       // Ch. 6 fixed-path (deadlock-free)
  kDCXFirstTree,    // Ch. 6 double-channel X-first tree (mesh, deadlock-free)
  kEcubeMT,         // naive e-cube multicast tree (hypercube, deadlock-prone)
  kBinomialBroadcast,  // nCUBE-2 broadcast tree (hypercube, deadlock-prone)
};

[[nodiscard]] std::string_view algorithm_name(Algorithm a);

/// Inverse of algorithm_name(); throws std::invalid_argument on unknown
/// names (shared by the CLI tools).
[[nodiscard]] Algorithm parse_algorithm(std::string_view name);

/// All algorithms instantiated for a 2-D mesh.
class MeshRoutingSuite {
 public:
  explicit MeshRoutingSuite(const topo::Mesh2D& mesh);

  [[nodiscard]] MulticastRoute route(Algorithm a, const MulticastRequest& request) const;

  [[nodiscard]] const topo::Mesh2D& mesh() const { return *mesh_; }
  [[nodiscard]] const ham::MeshBoustrophedonLabeling& labeling() const { return labeling_; }
  [[nodiscard]] const cdg::RoutingFunction& unicast() const { return unicast_; }
  /// Present when the mesh has an even dimension (fact F1).
  [[nodiscard]] const std::optional<ham::HamiltonCycle>& cycle() const { return cycle_; }

 private:
  const topo::Mesh2D* mesh_;
  ham::MeshBoustrophedonLabeling labeling_;
  cdg::RoutingFunction unicast_;
  std::optional<ham::HamiltonCycle> cycle_;
};

/// All algorithms instantiated for a hypercube.
class CubeRoutingSuite {
 public:
  explicit CubeRoutingSuite(const topo::Hypercube& cube);

  [[nodiscard]] MulticastRoute route(Algorithm a, const MulticastRequest& request) const;

  [[nodiscard]] const topo::Hypercube& cube() const { return *cube_; }
  [[nodiscard]] const ham::HypercubeGrayLabeling& labeling() const { return labeling_; }
  [[nodiscard]] const cdg::RoutingFunction& unicast() const { return unicast_; }
  [[nodiscard]] const ham::HamiltonCycle& cycle() const { return cycle_; }

 private:
  const topo::Hypercube* cube_;
  ham::HypercubeGrayLabeling labeling_;
  cdg::RoutingFunction unicast_;
  ham::HamiltonCycle cycle_;
};

/// Generic suite over *any* topology equipped with a Hamiltonian labeling
/// (3-D meshes, k-ary n-cubes, ...): supports the path-based deadlock-free
/// algorithms plus the unicast/broadcast baselines, with the label routing
/// function R serving as the deterministic unicast router.
class LabeledRoutingSuite {
 public:
  LabeledRoutingSuite(const topo::Topology& topology,
                      std::unique_ptr<ham::Labeling> labeling);

  [[nodiscard]] MulticastRoute route(Algorithm a, const MulticastRequest& request) const;

  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }
  [[nodiscard]] const ham::Labeling& labeling() const { return *labeling_; }

 private:
  const topo::Topology* topology_;
  std::unique_ptr<ham::Labeling> labeling_;
  cdg::RoutingFunction unicast_;
};

}  // namespace mcnet::mcast
