#include "core/router.hpp"

#include <optional>
#include <stdexcept>
#include <string>

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
#include "topology/hamiltonian.hpp"

namespace mcnet::mcast {

namespace {

constexpr Algorithm kLastAlgorithm = Algorithm::kBinomialBroadcast;

// What an algorithm asks of the topology beyond a Hamiltonian labeling.
enum class Needs : std::uint8_t { kLabeling, kMeshOrCube, kMesh, kCube };

// The one applicability table: the router's constructor and
// supported_algorithms() both read it.
Needs needs(Algorithm a) {
  switch (a) {
    case Algorithm::kMultiUnicast:
    case Algorithm::kBroadcast:
    case Algorithm::kDualPath:
    case Algorithm::kMultiPath:
    case Algorithm::kFixedPath:
      return Needs::kLabeling;
    case Algorithm::kSortedMP:
    case Algorithm::kSortedMC:
    case Algorithm::kGreedyST:
      return Needs::kMeshOrCube;
    case Algorithm::kXFirstMT:
    case Algorithm::kDividedGreedyMT:
    case Algorithm::kDCXFirstTree:
      return Needs::kMesh;
    case Algorithm::kLenTree:
    case Algorithm::kEcubeMT:
    case Algorithm::kBinomialBroadcast:
      return Needs::kCube;
  }
  throw std::invalid_argument("unknown algorithm");
}

bool applicable(Algorithm a, const topo::Mesh2D* mesh, const topo::Hypercube* cube) {
  switch (needs(a)) {
    case Needs::kLabeling: return true;
    case Needs::kMeshOrCube: return mesh != nullptr || cube != nullptr;
    case Needs::kMesh: return mesh != nullptr;
    case Needs::kCube: return cube != nullptr;
  }
  return false;
}

// The request as the routing functions must see it: `request` itself when
// it is already clean (no copy), else a deduplicated copy in a thread-local
// buffer that the next call on this thread overwrites.  Routing never
// re-enters a Router, so the reference outlives its one use.
const MulticastRequest& normalized_view(const MulticastRequest& request,
                                        std::uint32_t num_nodes) {
  thread_local RequestScratch scratch;
  thread_local MulticastRequest storage;
  return request.normalize_into(num_nodes, scratch, storage);
}

/// The library's one concrete router: every algorithm on every labeled
/// topology, dispatched by one switch over the bound algorithm.
class AlgorithmRouter final : public Router {
 public:
  AlgorithmRouter(const topo::Topology& topology, Algorithm algorithm, std::uint8_t copies);

  [[nodiscard]] MulticastRoute route(const MulticastRequest& request) const override;
  [[nodiscard]] std::vector<worm::WormSpec> specs(const MulticastRoute& route) const override;
  [[nodiscard]] std::string_view name() const override { return algorithm_name(algorithm_); }
  [[nodiscard]] Algorithm algorithm() const override { return algorithm_; }
  [[nodiscard]] bool deadlock_free() const override {
    // Section 6.2.1: the X-first tree is acyclic only with its quadrant
    // subnetworks on separate channel copies.
    return algorithm_deadlock_free(algorithm_) &&
           (algorithm_ != Algorithm::kDCXFirstTree || copies_ >= 2);
  }
  [[nodiscard]] const topo::Topology& topology() const override { return *topology_; }
  [[nodiscard]] std::uint8_t channel_copies() const override { return copies_; }

 private:
  [[nodiscard]] const ham::HamiltonCycle& cycle() const;

  const topo::Topology* topology_;
  const topo::Mesh2D* mesh_;     // null unless a 2-D mesh
  const topo::Hypercube* cube_;  // null unless a hypercube
  Algorithm algorithm_;
  std::uint8_t copies_;
  std::unique_ptr<ham::Labeling> labeling_;
  // Sorted-MP/MC only; absent on an odd-by-odd mesh (fact F1).
  std::optional<ham::HamiltonCycle> cycle_;
  // Deterministic shortest-path relay: multi-unicast, broadcast, greedy-ST.
  cdg::RoutingFunction unicast_;
};

AlgorithmRouter::AlgorithmRouter(const topo::Topology& topology, Algorithm algorithm,
                                 std::uint8_t copies)
    : topology_(&topology),
      mesh_(dynamic_cast<const topo::Mesh2D*>(&topology)),
      cube_(dynamic_cast<const topo::Hypercube*>(&topology)),
      algorithm_(algorithm),
      copies_(copies),
      labeling_(ham::make_labeling(topology)) {
  if (labeling_ == nullptr) {
    throw std::invalid_argument("make_router: unsupported topology " + topology.name());
  }
  if (!applicable(algorithm, mesh_, cube_)) {
    throw std::invalid_argument("algorithm " + std::string(algorithm_name(algorithm)) +
                                " is not applicable to " + topology.name());
  }
  if (copies == 0) throw std::invalid_argument("make_router: copies must be at least 1");

  switch (algorithm) {
    case Algorithm::kSortedMP:
    case Algorithm::kSortedMC:
      if (cube_ != nullptr) {
        cycle_.emplace(ham::hypercube_gray_cycle(*cube_));
      } else if (mesh_->num_nodes() == 1 ||
                 (mesh_->width() % 2 == 0 && mesh_->height() >= 2) ||
                 (mesh_->height() % 2 == 0 && mesh_->width() >= 2)) {
        cycle_.emplace(ham::mesh_comb_cycle(*mesh_));
      }
      break;
    case Algorithm::kMultiUnicast:
    case Algorithm::kBroadcast:
    case Algorithm::kGreedyST:
      if (mesh_ != nullptr) {
        unicast_ = cdg::xfirst_routing(*mesh_);
      } else if (cube_ != nullptr) {
        unicast_ = cdg::ecube_routing(*cube_);
      } else {
        // R itself is a deterministic unicast router on any labeled topology.
        unicast_ = [router = LabelRouter(topology, *labeling_)](topo::NodeId cur,
                                                                topo::NodeId dst) {
          return cur == dst ? topo::kInvalidNode : router.next_hop(cur, dst);
        };
      }
      break;
    default:
      break;
  }
}

const ham::HamiltonCycle& AlgorithmRouter::cycle() const {
  if (!cycle_) throw std::logic_error("mesh has no Hamiltonian cycle (both dims odd)");
  return *cycle_;
}

MulticastRoute AlgorithmRouter::route(const MulticastRequest& request) const {
  const MulticastRequest& r = normalized_view(request, topology_->num_nodes());
  const topo::Topology& t = *topology_;
  switch (algorithm_) {
    case Algorithm::kMultiUnicast: return multi_unicast_route(t, unicast_, r);
    case Algorithm::kBroadcast: return broadcast_route(t, unicast_, r);
    case Algorithm::kSortedMP: return sorted_mp_route(t, cycle(), r);
    case Algorithm::kSortedMC: return sorted_mc_route(t, cycle(), r);
    case Algorithm::kGreedyST:
      return greedy_st_route(
          t, unicast_,
          [this](topo::NodeId s, topo::NodeId d, topo::NodeId w) {
            return mesh_ != nullptr ? mesh_->closest_on_shortest_paths(s, d, w)
                                    : cube_->closest_on_shortest_paths(s, d, w);
          },
          r);
    case Algorithm::kXFirstMT: return xfirst_mt_route(*mesh_, r);
    case Algorithm::kDividedGreedyMT: return divided_greedy_mt_route(*mesh_, r);
    case Algorithm::kLenTree: return len_tree_route(*cube_, r);
    case Algorithm::kDualPath: return dual_path_route(t, *labeling_, r);
    case Algorithm::kMultiPath: return multi_path_route(t, *labeling_, r);
    case Algorithm::kFixedPath: return fixed_path_route(t, *labeling_, r);
    case Algorithm::kDCXFirstTree: return dc_xfirst_tree_route(*mesh_, r);
    case Algorithm::kEcubeMT: return ecube_mt_route(*cube_, r);
    case Algorithm::kBinomialBroadcast: return binomial_broadcast_route(*cube_, r);
  }
  throw std::logic_error("unknown algorithm");
}

std::vector<worm::WormSpec> AlgorithmRouter::specs(const MulticastRoute& route) const {
  if (mesh_ != nullptr) return worm::make_worm_specs(*mesh_, route, copies_);
  return worm::make_worm_specs(*topology_, route, copies_);
}

}  // namespace

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
  for (int a = 0; a <= static_cast<int>(kLastAlgorithm); ++a) {
    if (algorithm_name(static_cast<Algorithm>(a)) == name) return static_cast<Algorithm>(a);
  }
  throw std::invalid_argument("unknown algorithm: " + std::string(name));
}

RouteBatch Router::route_many(std::span<const MulticastRequest> requests) const {
  RouteBatch batch;
  batch.reserve(requests.size());
  for (const MulticastRequest& request : requests) batch.push_back(route(request));
  return batch;
}

bool algorithm_deadlock_free(Algorithm a) {
  switch (a) {
    case Algorithm::kMultiUnicast:
    case Algorithm::kDualPath:
    case Algorithm::kMultiPath:
    case Algorithm::kFixedPath:
    case Algorithm::kDCXFirstTree:
      return true;
    default:
      return false;
  }
}

std::vector<Algorithm> supported_algorithms(const topo::Topology& topology) {
  if (ham::make_labeling(topology) == nullptr) return {};
  const auto* mesh = dynamic_cast<const topo::Mesh2D*>(&topology);
  const auto* cube = dynamic_cast<const topo::Hypercube*>(&topology);
  std::vector<Algorithm> out;
  for (int i = 0; i <= static_cast<int>(kLastAlgorithm); ++i) {
    const auto a = static_cast<Algorithm>(i);
    if (applicable(a, mesh, cube)) out.push_back(a);
  }
  return out;
}

std::unique_ptr<Router> make_router(const topo::Topology& topology, Algorithm algorithm,
                                    std::uint8_t copies) {
  return std::make_unique<AlgorithmRouter>(topology, algorithm, copies);
}

}  // namespace mcnet::mcast
