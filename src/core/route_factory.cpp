#include "core/route_factory.hpp"

#include <stdexcept>

#include "cdg/analyzers.hpp"
#include "core/baselines.hpp"
#include "core/dc_xfirst_tree.hpp"
#include "core/divided_greedy_mt.hpp"
#include "core/dual_path.hpp"
#include "core/fixed_path.hpp"
#include "core/greedy_st.hpp"
#include "core/len_tree.hpp"
#include "core/multi_path.hpp"
#include "core/naive_tree.hpp"
#include "core/sorted_mp.hpp"
#include "core/xfirst_mt.hpp"

namespace mcnet::mcast {

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kMultiUnicast: return "multi-unicast";
    case Algorithm::kBroadcast: return "broadcast";
    case Algorithm::kSortedMP: return "sorted-MP";
    case Algorithm::kSortedMC: return "sorted-MC";
    case Algorithm::kGreedyST: return "greedy-ST";
    case Algorithm::kXFirstMT: return "X-first-MT";
    case Algorithm::kDividedGreedyMT: return "divided-greedy-MT";
    case Algorithm::kLenTree: return "LEN-tree";
    case Algorithm::kDualPath: return "dual-path";
    case Algorithm::kMultiPath: return "multi-path";
    case Algorithm::kFixedPath: return "fixed-path";
    case Algorithm::kDCXFirstTree: return "dc-X-first-tree";
    case Algorithm::kEcubeMT: return "ecube-MT";
    case Algorithm::kBinomialBroadcast: return "binomial-broadcast";
  }
  return "unknown";
}

Algorithm parse_algorithm(std::string_view name) {
  for (int a = 0; a <= static_cast<int>(Algorithm::kBinomialBroadcast); ++a) {
    if (algorithm_name(static_cast<Algorithm>(a)) == name) return static_cast<Algorithm>(a);
  }
  throw std::invalid_argument("unknown algorithm: " + std::string(name));
}

MeshRoutingSuite::MeshRoutingSuite(const topo::Mesh2D& mesh)
    : mesh_(&mesh), labeling_(mesh), unicast_(cdg::xfirst_routing(mesh)) {
  if (mesh.num_nodes() == 1 ||
      (mesh.width() % 2 == 0 && mesh.height() >= 2) ||
      (mesh.height() % 2 == 0 && mesh.width() >= 2)) {
    cycle_.emplace(ham::mesh_comb_cycle(mesh));
  }
}

MulticastRoute MeshRoutingSuite::route(Algorithm a, const MulticastRequest& request) const {
  switch (a) {
    case Algorithm::kMultiUnicast:
      return multi_unicast_route(*mesh_, unicast_, request);
    case Algorithm::kBroadcast:
      return broadcast_route(*mesh_, unicast_, request);
    case Algorithm::kSortedMP:
    case Algorithm::kSortedMC: {
      if (!cycle_) throw std::logic_error("mesh has no Hamiltonian cycle (both dims odd)");
      return a == Algorithm::kSortedMP ? sorted_mp_route(*mesh_, *cycle_, request)
                                       : sorted_mc_route(*mesh_, *cycle_, request);
    }
    case Algorithm::kGreedyST:
      return greedy_st_route(
          *mesh_, unicast_,
          [this](topo::NodeId s, topo::NodeId t, topo::NodeId w) {
            return mesh_->closest_on_shortest_paths(s, t, w);
          },
          request);
    case Algorithm::kXFirstMT:
      return xfirst_mt_route(*mesh_, request);
    case Algorithm::kDividedGreedyMT:
      return divided_greedy_mt_route(*mesh_, request);
    case Algorithm::kDualPath:
      return dual_path_route(*mesh_, labeling_, request);
    case Algorithm::kMultiPath:
      return multi_path_route(*mesh_, labeling_, request);
    case Algorithm::kFixedPath:
      return fixed_path_route(*mesh_, labeling_, request);
    case Algorithm::kDCXFirstTree:
      return dc_xfirst_tree_route(*mesh_, request);
    default:
      throw std::invalid_argument("algorithm not applicable to a 2-D mesh");
  }
}

CubeRoutingSuite::CubeRoutingSuite(const topo::Hypercube& cube)
    : cube_(&cube),
      labeling_(cube),
      unicast_(cdg::ecube_routing(cube)),
      cycle_(ham::hypercube_gray_cycle(cube)) {}

MulticastRoute CubeRoutingSuite::route(Algorithm a, const MulticastRequest& request) const {
  switch (a) {
    case Algorithm::kMultiUnicast:
      return multi_unicast_route(*cube_, unicast_, request);
    case Algorithm::kBroadcast:
      return broadcast_route(*cube_, unicast_, request);
    case Algorithm::kSortedMP:
      return sorted_mp_route(*cube_, cycle_, request);
    case Algorithm::kSortedMC:
      return sorted_mc_route(*cube_, cycle_, request);
    case Algorithm::kGreedyST:
      return greedy_st_route(
          *cube_, unicast_,
          [this](topo::NodeId s, topo::NodeId t, topo::NodeId w) {
            return cube_->closest_on_shortest_paths(s, t, w);
          },
          request);
    case Algorithm::kLenTree:
      return len_tree_route(*cube_, request);
    case Algorithm::kDualPath:
      return dual_path_route(*cube_, labeling_, request);
    case Algorithm::kMultiPath:
      return multi_path_route(*cube_, labeling_, request);
    case Algorithm::kFixedPath:
      return fixed_path_route(*cube_, labeling_, request);
    case Algorithm::kEcubeMT:
      return ecube_mt_route(*cube_, request);
    case Algorithm::kBinomialBroadcast:
      return binomial_broadcast_route(*cube_, request);
    default:
      throw std::invalid_argument("algorithm not applicable to a hypercube");
  }
}

LabeledRoutingSuite::LabeledRoutingSuite(const topo::Topology& topology,
                                         std::unique_ptr<ham::Labeling> labeling)
    : topology_(&topology), labeling_(std::move(labeling)) {
  if (!labeling_) throw std::invalid_argument("labeling must not be null");
  // R itself is a deterministic unicast router on any labeled topology.
  const LabelRouter router(*topology_, *labeling_);
  unicast_ = [router](topo::NodeId cur, topo::NodeId dst) {
    return cur == dst ? topo::kInvalidNode : router.next_hop(cur, dst);
  };
}

MulticastRoute LabeledRoutingSuite::route(Algorithm a, const MulticastRequest& request) const {
  switch (a) {
    case Algorithm::kMultiUnicast:
      return multi_unicast_route(*topology_, unicast_, request);
    case Algorithm::kBroadcast:
      return broadcast_route(*topology_, unicast_, request);
    case Algorithm::kDualPath:
      return dual_path_route(*topology_, *labeling_, request);
    case Algorithm::kMultiPath:
      return multi_path_route(*topology_, *labeling_, request);
    case Algorithm::kFixedPath:
      return fixed_path_route(*topology_, *labeling_, request);
    default:
      throw std::invalid_argument(
          "algorithm not available through the generic labeled suite");
  }
}

}  // namespace mcnet::mcast
