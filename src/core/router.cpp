#include "core/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "topology/kary_ncube.hpp"
#include "topology/mesh3d.hpp"

namespace mcnet::mcast {

namespace {

constexpr Algorithm kMeshAlgorithms[] = {
    Algorithm::kMultiUnicast,    Algorithm::kBroadcast,  Algorithm::kSortedMP,
    Algorithm::kSortedMC,        Algorithm::kGreedyST,   Algorithm::kXFirstMT,
    Algorithm::kDividedGreedyMT, Algorithm::kDualPath,   Algorithm::kMultiPath,
    Algorithm::kFixedPath,       Algorithm::kDCXFirstTree};

constexpr Algorithm kCubeAlgorithms[] = {
    Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kSortedMP,
    Algorithm::kSortedMC,     Algorithm::kGreedyST,  Algorithm::kLenTree,
    Algorithm::kDualPath,     Algorithm::kMultiPath, Algorithm::kFixedPath,
    Algorithm::kEcubeMT,      Algorithm::kBinomialBroadcast};

constexpr Algorithm kLabeledAlgorithms[] = {
    Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kDualPath,
    Algorithm::kMultiPath, Algorithm::kFixedPath};

// The request as the suites must see it: `request` itself when it is
// already clean (no copy), else a deduplicated copy in a thread-local
// buffer that the next call on this thread overwrites.  Suite routing
// never re-enters a Router, so the reference outlives its one use.
const MulticastRequest& normalized_view(const MulticastRequest& request,
                                        std::uint32_t num_nodes) {
  thread_local RequestScratch scratch;
  thread_local MulticastRequest storage;
  return request.normalize_into(num_nodes, scratch, storage);
}

template <std::size_t N>
bool contains(const Algorithm (&list)[N], Algorithm a) {
  return std::find(std::begin(list), std::end(list), a) != std::end(list);
}

template <std::size_t N>
void require(const Algorithm (&list)[N], Algorithm a, const topo::Topology& t) {
  if (!contains(list, a)) {
    throw std::invalid_argument("algorithm " + std::string(algorithm_name(a)) +
                                " is not applicable to " + t.name());
  }
}

}  // namespace

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
  const auto to_vector = [](const auto& list) {
    return std::vector<Algorithm>(std::begin(list), std::end(list));
  };
  if (dynamic_cast<const topo::Mesh2D*>(&topology) != nullptr) {
    return to_vector(kMeshAlgorithms);
  }
  if (dynamic_cast<const topo::Hypercube*>(&topology) != nullptr) {
    return to_vector(kCubeAlgorithms);
  }
  if (dynamic_cast<const topo::Mesh3D*>(&topology) != nullptr ||
      dynamic_cast<const topo::KAryNCube*>(&topology) != nullptr) {
    return to_vector(kLabeledAlgorithms);
  }
  return {};
}

std::unique_ptr<Router> make_router(const topo::Topology& topology, Algorithm algorithm,
                                    std::uint8_t copies) {
  if (const auto* mesh = dynamic_cast<const topo::Mesh2D*>(&topology)) {
    return std::make_unique<MeshRouter>(*mesh, algorithm, copies);
  }
  if (const auto* cube = dynamic_cast<const topo::Hypercube*>(&topology)) {
    return std::make_unique<CubeRouter>(*cube, algorithm, copies);
  }
  if (const auto* mesh3 = dynamic_cast<const topo::Mesh3D*>(&topology)) {
    return std::make_unique<LabeledRouter>(
        *mesh3,
        std::make_unique<ham::MixedRadixGrayLabeling>(
            ham::MixedRadixGrayLabeling::for_mesh3d(*mesh3)),
        algorithm, copies);
  }
  if (const auto* kary = dynamic_cast<const topo::KAryNCube*>(&topology)) {
    return std::make_unique<LabeledRouter>(
        *kary,
        std::make_unique<ham::MixedRadixGrayLabeling>(
            ham::MixedRadixGrayLabeling::for_kary(*kary)),
        algorithm, copies);
  }
  throw std::invalid_argument("make_router: unsupported topology " + topology.name());
}

MeshRouter::MeshRouter(const topo::Mesh2D& mesh, Algorithm algorithm, std::uint8_t copies)
    : SuiteRouterBase(algorithm, copies), suite_(mesh) {
  require(kMeshAlgorithms, algorithm, mesh);
}

MulticastRoute MeshRouter::route(const MulticastRequest& request) const {
  return suite_.route(algorithm_, normalized_view(request, suite_.mesh().num_nodes()));
}

std::vector<worm::WormSpec> MeshRouter::specs(const MulticastRoute& route) const {
  return worm::make_worm_specs(suite_.mesh(), route, copies_);
}

CubeRouter::CubeRouter(const topo::Hypercube& cube, Algorithm algorithm, std::uint8_t copies)
    : SuiteRouterBase(algorithm, copies), suite_(cube) {
  require(kCubeAlgorithms, algorithm, cube);
}

MulticastRoute CubeRouter::route(const MulticastRequest& request) const {
  return suite_.route(algorithm_, normalized_view(request, suite_.cube().num_nodes()));
}

std::vector<worm::WormSpec> CubeRouter::specs(const MulticastRoute& route) const {
  return worm::make_worm_specs(suite_.cube(), route, copies_);
}

LabeledRouter::LabeledRouter(const topo::Topology& topology,
                             std::unique_ptr<ham::Labeling> labeling, Algorithm algorithm,
                             std::uint8_t copies)
    : SuiteRouterBase(algorithm, copies), suite_(topology, std::move(labeling)) {
  require(kLabeledAlgorithms, algorithm, topology);
}

MulticastRoute LabeledRouter::route(const MulticastRequest& request) const {
  return suite_.route(algorithm_, normalized_view(request, suite_.topology().num_nodes()));
}

std::vector<worm::WormSpec> LabeledRouter::specs(const MulticastRoute& route) const {
  return worm::make_worm_specs(suite_.topology(), route, copies_);
}

}  // namespace mcnet::mcast
