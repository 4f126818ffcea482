#include "core/multi_path.hpp"

#include <algorithm>

namespace mcnet::mcast {

namespace {

using topo::NodeId;

// Neighbours of `u` on the given side of the labeling, sorted by label
// (ascending for the high side, descending for the low side).
std::vector<NodeId> side_neighbors(const topo::Topology& topology,
                                   const ham::Labeling& labeling, NodeId u, bool high) {
  const std::uint32_t lu = labeling.label(u);
  std::vector<NodeId> result;
  for (const NodeId p : topology.neighbors(u)) {
    if ((labeling.label(p) > lu) == high) result.push_back(p);
  }
  std::sort(result.begin(), result.end(), [&](NodeId a, NodeId b) {
    return high ? labeling.label(a) < labeling.label(b)
                : labeling.label(a) > labeling.label(b);
  });
  return result;
}

// Mesh split of one side (Fig. 6.14 step 3): when two neighbours exist,
// destinations on neighbour v1's x-side go through v1, the rest through v2.
void prepare_mesh_side(const topo::Mesh2D& mesh, const std::vector<NodeId>& sorted_side,
                       const std::vector<NodeId>& neighbors, std::uint8_t channel_class,
                       std::vector<MultiPathWorm>& worms) {
  if (sorted_side.empty()) return;
  if (neighbors.size() < 2) {
    worms.push_back({channel_class,
                     neighbors.empty() ? std::nullopt : std::make_optional(neighbors[0]),
                     sorted_side});
    return;
  }
  const std::int32_t x1 = mesh.coord(neighbors[0]).x;
  const std::int32_t x2 = mesh.coord(neighbors[1]).x;
  std::vector<NodeId> d1, d2;
  for (const NodeId d : sorted_side) {
    const std::int32_t x = mesh.coord(d).x;
    const bool to_v1 = (x1 < x2) ? (x <= x1) : (x >= x1);
    (to_v1 ? d1 : d2).push_back(d);
  }
  if (!d1.empty()) worms.push_back({channel_class, neighbors[0], std::move(d1)});
  if (!d2.empty()) worms.push_back({channel_class, neighbors[1], std::move(d2)});
}

MulticastRoute route_worms(const LabelRouter& router, const MulticastRequest& request,
                           const std::vector<MultiPathWorm>& worms) {
  MulticastRoute route;
  route.source = request.source;
  for (const MultiPathWorm& worm : worms) {
    route.paths.push_back(
        router.route_path(request.source, worm.targets, worm.first_hop, worm.channel_class));
  }
  return route;
}

}  // namespace

std::vector<MultiPathWorm> multi_path_prepare(const topo::Topology& topology,
                                              const ham::Labeling& labeling,
                                              const MulticastRequest& request) {
  const DualPathSplit split = dual_path_prepare(labeling, request);
  std::vector<MultiPathWorm> worms;
  const auto* mesh = dynamic_cast<const topo::Mesh2D*>(&topology);
  if (mesh != nullptr && dynamic_cast<const ham::MeshBoustrophedonLabeling*>(&labeling)) {
    prepare_mesh_side(*mesh, split.high,
                      side_neighbors(topology, labeling, request.source, /*high=*/true),
                      kHighChannelClass, worms);
    prepare_mesh_side(*mesh, split.low,
                      side_neighbors(topology, labeling, request.source, /*high=*/false),
                      kLowChannelClass, worms);
    return worms;
  }

  // Fig. 6.20 step 3/4: bucket each side by the label ranges of the side's
  // neighbours.  Side lists are label-sorted, neighbour lists likewise, so
  // a single merge pass assigns each destination to the nearest preceding
  // neighbour.
  const auto prepare_side = [&](const std::vector<NodeId>& side,
                                const std::vector<NodeId>& nbrs, bool high,
                                std::uint8_t channel_class) {
    if (side.empty()) return;
    std::size_t b = 0;  // current neighbour bucket
    std::vector<NodeId> bucket;
    const auto flush = [&] {
      if (!bucket.empty()) {
        worms.push_back({channel_class, nbrs[b], std::move(bucket)});
        bucket.clear();
      }
    };
    for (const NodeId d : side) {
      const std::uint32_t ld = labeling.label(d);
      while (b + 1 < nbrs.size() &&
             (high ? labeling.label(nbrs[b + 1]) <= ld : labeling.label(nbrs[b + 1]) >= ld)) {
        flush();
        ++b;
      }
      bucket.push_back(d);
    }
    flush();
  };
  prepare_side(split.high, side_neighbors(topology, labeling, request.source, true), true,
               kHighChannelClass);
  prepare_side(split.low, side_neighbors(topology, labeling, request.source, false), false,
               kLowChannelClass);
  return worms;
}

MulticastRoute multi_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                                const MulticastRequest& request) {
  return route_worms(LabelRouter(topology, labeling), request,
                     multi_path_prepare(topology, labeling, request));
}

}  // namespace mcnet::mcast
