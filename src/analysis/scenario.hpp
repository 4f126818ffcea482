// Analysis scenarios: a (topology, multicast algorithm) pair packaged with
// everything the static analyzer needs -- the route function, the worm
// delivery semantics that determine which channel dependencies a tree
// induces, the virtual-channel copy mapping (double-channel schemes), and
// the invariants the algorithm claims (label monotonicity, shortest unicast
// legs, quadrant-subnetwork membership).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/router.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/spec.hpp"

namespace mcnet::analysis {

/// How a tree-shaped worm blocks, which decides the dependency edges its
/// links induce (Section 6.1 vs 6.2.1):
///
///  * kLockStep -- the nCUBE-2 model: all branches advance in lock step, so
///    a blocked branch stalls the whole worm while every already-acquired
///    channel anywhere in the tree stays held.  Any held channel can then
///    wait on any channel whose acquisition does not itself require the
///    held one, which is what makes the naive trees deadlock-prone.
///  * kIndependentBranches -- the double-channel model: each branch blocks
///    and drains on its own, so only consecutive (parent -> child) channel
///    pairs form dependencies, exactly as for path worms.
enum class TreeSemantics : std::uint8_t { kLockStep, kIndependentBranches };

/// Maps a route component's channel class and a hop direction to the
/// physical channel copy it is pinned to (double-channel schemes).
using CopyFunction =
    std::function<std::uint8_t(std::uint8_t channel_class, topo::NodeId from, topo::NodeId to)>;

/// One concrete (topology, algorithm) under static analysis.  Non-owning:
/// the Fixture (or test) that built it keeps topology and labeling alive.
/// make_scenario() routes through make_router(), so the analyzer checks the
/// routes the simulator runs; `route` stays a std::function so tests can
/// plug in fakes.
struct Scenario {
  std::string name;
  const topo::Topology* topology = nullptr;
  std::function<mcast::MulticastRoute(const mcast::MulticastRequest&)> route;
  TreeSemantics tree_semantics = TreeSemantics::kIndependentBranches;
  /// Virtual channel copies per physical channel (1 = single-channel).
  std::uint8_t channel_copies = 1;
  /// Copy pinning; null means copy 0 everywhere.
  CopyFunction copy_of;
  /// Labeling for the label-order invariants; null when not applicable.
  const ham::Labeling* labeling = nullptr;
  /// Paths must be strictly label-monotone (high class ascending, low
  /// class descending) and confined to their subnetwork.
  bool label_monotone_paths = false;
  /// Singleton-destination routes must use exactly distance(src, dst) hops.
  bool shortest_unicast = false;
  /// Trees must stay inside their quadrant subnetwork (dc X-first).
  const topo::Mesh2D* quadrant_mesh = nullptr;
};

/// Owns a parsed topology plus the labeling the Chapter 6 algorithms need.
struct Fixture {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<ham::Labeling> labeling;
  // Concrete-type views (null when the topology is of another kind).
  const topo::Mesh2D* mesh2d = nullptr;
  const topo::Hypercube* cube = nullptr;
  const topo::Mesh3D* mesh3d = nullptr;
  const topo::KAryNCube* kary = nullptr;
};

/// Parse "mesh:WxH" / "cube:N" / "mesh3:XxYxZ" / "kary:KxN" / "karymesh:KxN"
/// and attach the Hamiltonian labeling ham::make_labeling() picks, the one
/// make_router() routes with.
[[nodiscard]] Fixture make_fixture(const std::string& topology_spec);

/// The multicast algorithms the analyzer can check on this fixture.
[[nodiscard]] std::vector<mcast::Algorithm> verifiable_algorithms(const Fixture& fixture);

/// Build the scenario for `algorithm` on `fixture`.  Throws
/// std::invalid_argument when the algorithm is not verifiable there.
[[nodiscard]] Scenario make_scenario(const Fixture& fixture, mcast::Algorithm algorithm);

/// True when Chapter 6 claims the algorithm deadlock-free (the analyzer is
/// expected to prove these clean and to find witnesses for the rest).
[[nodiscard]] bool claimed_deadlock_free(mcast::Algorithm algorithm);

}  // namespace mcnet::analysis
