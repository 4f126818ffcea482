#include "analysis/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/dc_xfirst_tree.hpp"

namespace mcnet::analysis {

using mcast::Algorithm;

Fixture make_fixture(const std::string& topology_spec) {
  Fixture f;
  f.topology = topo::make_topology(topology_spec);
  f.labeling = ham::make_labeling(*f.topology);
  f.mesh2d = dynamic_cast<const topo::Mesh2D*>(f.topology.get());
  f.cube = dynamic_cast<const topo::Hypercube*>(f.topology.get());
  f.mesh3d = dynamic_cast<const topo::Mesh3D*>(f.topology.get());
  f.kary = dynamic_cast<const topo::KAryNCube*>(f.topology.get());
  return f;
}

std::vector<Algorithm> verifiable_algorithms(const Fixture& fixture) {
  if (fixture.mesh2d != nullptr) {
    return {Algorithm::kXFirstMT, Algorithm::kDCXFirstTree, Algorithm::kDualPath,
            Algorithm::kMultiPath, Algorithm::kFixedPath};
  }
  if (fixture.cube != nullptr) {
    return {Algorithm::kBinomialBroadcast, Algorithm::kEcubeMT, Algorithm::kDualPath,
            Algorithm::kMultiPath, Algorithm::kFixedPath};
  }
  return {Algorithm::kDualPath, Algorithm::kMultiPath, Algorithm::kFixedPath};
}

bool claimed_deadlock_free(Algorithm algorithm) {
  return mcast::algorithm_deadlock_free(algorithm);
}

Scenario make_scenario(const Fixture& fixture, Algorithm algorithm) {
  const std::vector<Algorithm> verifiable = verifiable_algorithms(fixture);
  if (std::find(verifiable.begin(), verifiable.end(), algorithm) == verifiable.end()) {
    throw std::invalid_argument("algorithm " + std::string(mcast::algorithm_name(algorithm)) +
                                " is not verifiable on " + fixture.topology->name());
  }
  Scenario s;
  s.topology = fixture.topology.get();
  s.labeling = fixture.labeling.get();
  s.name = std::string(mcast::algorithm_name(algorithm)) + " @ " + fixture.topology->name();

  switch (algorithm) {
    case Algorithm::kXFirstMT:
    case Algorithm::kEcubeMT:
    case Algorithm::kBinomialBroadcast:
      s.tree_semantics = TreeSemantics::kLockStep;
      break;

    case Algorithm::kDCXFirstTree: {
      const topo::Mesh2D* mesh = fixture.mesh2d;
      s.channel_copies = 2;
      s.copy_of = [mesh](std::uint8_t cls, topo::NodeId from, topo::NodeId to) {
        const topo::Coord2 a = mesh->coord(from);
        const topo::Coord2 b = mesh->coord(to);
        return mcast::quadrant_channel_copy(static_cast<mcast::Quadrant>(cls), b.x - a.x,
                                            b.y - a.y);
      };
      s.quadrant_mesh = mesh;
      break;
    }

    case Algorithm::kDualPath:
      s.label_monotone_paths = true;
      // Lemma 6.1: the label router takes shortest paths -- on meshes and
      // hypercubes.  Wraparound rings break the claim (the Hamiltonian
      // subnetworks cannot shortcut across the wrap channels).
      s.shortest_unicast = fixture.kary == nullptr || !fixture.kary->wraps();
      break;

    case Algorithm::kMultiPath:
    case Algorithm::kFixedPath:
      s.label_monotone_paths = true;
      break;

    default:
      break;
  }

  std::shared_ptr<const mcast::Router> router =
      mcast::make_router(*fixture.topology, algorithm, s.channel_copies);
  s.route = [router](const mcast::MulticastRequest& r) { return router->route(r); };
  return s;
}

}  // namespace mcnet::analysis
