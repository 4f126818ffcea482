#include "core/multi_path.hpp"

#include <algorithm>
#include <span>

namespace mcnet::mcast {

namespace {

using topo::NodeId;

// One worm of the split; its targets are targets[begin, end) of the plan.
struct WormPlan {
  std::uint8_t channel_class = 0;
  std::optional<NodeId> first_hop;
  std::size_t begin = 0;
  std::size_t end = 0;
};

// The multi-path split of one request, in storage each thread reuses.
struct Plan {
  DualPathSplit split;
  std::vector<NodeId> neighbors;  // the side being split
  std::vector<NodeId> targets;    // worm after worm
  std::vector<WormPlan> worms;

  void add_worm(std::uint8_t channel_class, std::optional<NodeId> first_hop,
                std::size_t begin) {
    if (begin != targets.size()) {
      worms.push_back({channel_class, first_hop, begin, targets.size()});
    }
  }
};

// Neighbours of `u` on the given side of the labeling, sorted by label
// (ascending for the high side, descending for the low side).
void side_neighbors(const topo::Topology& topology, const ham::Labeling& labeling, NodeId u,
                    bool high, std::vector<NodeId>& out) {
  const std::uint32_t lu = labeling.label(u);
  out.clear();
  for (const NodeId p : topology.neighbors(u)) {
    if ((labeling.label(p) > lu) == high) out.push_back(p);
  }
  std::sort(out.begin(), out.end(), [&](NodeId a, NodeId b) {
    return high ? labeling.label(a) < labeling.label(b)
                : labeling.label(a) > labeling.label(b);
  });
}

// Mesh split of one side (Fig. 6.14 step 3): when two neighbours exist,
// destinations on neighbour v1's x-side go through v1, the rest through v2.
void plan_mesh_side(const topo::Mesh2D& mesh, const std::vector<NodeId>& sorted_side,
                    std::uint8_t channel_class, Plan& plan) {
  if (sorted_side.empty()) return;
  const std::vector<NodeId>& neighbors = plan.neighbors;
  std::size_t begin = plan.targets.size();
  if (neighbors.size() < 2) {
    plan.targets.insert(plan.targets.end(), sorted_side.begin(), sorted_side.end());
    plan.add_worm(channel_class,
                  neighbors.empty() ? std::nullopt : std::make_optional(neighbors[0]), begin);
    return;
  }
  const std::int32_t x1 = mesh.coord(neighbors[0]).x;
  const std::int32_t x2 = mesh.coord(neighbors[1]).x;
  const auto to_v1 = [&](NodeId d) {
    const std::int32_t x = mesh.coord(d).x;
    return (x1 < x2) ? (x <= x1) : (x >= x1);
  };
  for (const NodeId d : sorted_side) {
    if (to_v1(d)) plan.targets.push_back(d);
  }
  plan.add_worm(channel_class, neighbors[0], begin);
  begin = plan.targets.size();
  for (const NodeId d : sorted_side) {
    if (!to_v1(d)) plan.targets.push_back(d);
  }
  plan.add_worm(channel_class, neighbors[1], begin);
}

// Fig. 6.20 step 3/4: bucket one side by the label ranges of the side's
// neighbours.  Side lists are label-sorted, neighbour lists likewise, so a
// single merge pass assigns each destination to the nearest preceding
// neighbour.
void plan_labeled_side(const ham::Labeling& labeling, const std::vector<NodeId>& side,
                       bool high, std::uint8_t channel_class, Plan& plan) {
  if (side.empty()) return;
  const std::vector<NodeId>& nbrs = plan.neighbors;
  std::size_t b = 0;  // current neighbour bucket
  std::size_t begin = plan.targets.size();
  for (const NodeId d : side) {
    const std::uint32_t ld = labeling.label(d);
    while (b + 1 < nbrs.size() &&
           (high ? labeling.label(nbrs[b + 1]) <= ld : labeling.label(nbrs[b + 1]) >= ld)) {
      plan.add_worm(channel_class, nbrs[b], begin);
      begin = plan.targets.size();
      ++b;
    }
    plan.targets.push_back(d);
  }
  plan.add_worm(channel_class, nbrs[b], begin);
}

// The multi-path split of `request`, into this thread's plan.
const Plan& plan_worms(const topo::Topology& topology, const ham::Labeling& labeling,
                       const MulticastRequest& request) {
  thread_local Plan plan;
  dual_path_prepare(labeling, request, plan.split);
  plan.targets.clear();
  plan.worms.clear();
  const auto* mesh = dynamic_cast<const topo::Mesh2D*>(&topology);
  const bool mesh_split =
      mesh != nullptr && dynamic_cast<const ham::MeshBoustrophedonLabeling*>(&labeling);
  for (const bool high : {true, false}) {
    const std::vector<NodeId>& side = high ? plan.split.high : plan.split.low;
    const std::uint8_t channel_class = high ? kHighChannelClass : kLowChannelClass;
    side_neighbors(topology, labeling, request.source, high, plan.neighbors);
    if (mesh_split) {
      plan_mesh_side(*mesh, side, channel_class, plan);
    } else {
      plan_labeled_side(labeling, side, high, channel_class, plan);
    }
  }
  return plan;
}

}  // namespace

std::vector<MultiPathWorm> multi_path_prepare(const topo::Topology& topology,
                                              const ham::Labeling& labeling,
                                              const MulticastRequest& request) {
  const Plan& plan = plan_worms(topology, labeling, request);
  std::vector<MultiPathWorm> worms;
  worms.reserve(plan.worms.size());
  for (const WormPlan& w : plan.worms) {
    worms.push_back({w.channel_class, w.first_hop,
                     {plan.targets.begin() + static_cast<std::ptrdiff_t>(w.begin),
                      plan.targets.begin() + static_cast<std::ptrdiff_t>(w.end)}});
  }
  return worms;
}

MulticastRoute multi_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                                const MulticastRequest& request) {
  const Plan& plan = plan_worms(topology, labeling, request);
  const LabelRouter router(topology, labeling);
  MulticastRoute route;
  route.source = request.source;
  route.paths.reserve(plan.worms.size());
  for (const WormPlan& w : plan.worms) {
    route.paths.push_back(router.route_path(
        request.source, std::span(plan.targets).subspan(w.begin, w.end - w.begin), w.first_hop,
        w.channel_class));
  }
  return route;
}

}  // namespace mcnet::mcast
