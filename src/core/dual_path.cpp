#include "core/dual_path.hpp"

#include <algorithm>

namespace mcnet::mcast {

DualPathSplit dual_path_prepare(const ham::Labeling& labeling,
                                const MulticastRequest& request) {
  DualPathSplit split;
  const std::uint32_t ls = labeling.label(request.source);
  for (const topo::NodeId d : request.destinations) {
    (labeling.label(d) > ls ? split.high : split.low).push_back(d);
  }
  std::sort(split.high.begin(), split.high.end(), [&](topo::NodeId a, topo::NodeId b) {
    return labeling.label(a) < labeling.label(b);
  });
  std::sort(split.low.begin(), split.low.end(), [&](topo::NodeId a, topo::NodeId b) {
    return labeling.label(a) > labeling.label(b);
  });
  return split;
}

MulticastRoute dual_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                               const MulticastRequest& request) {
  const LabelRouter router(topology, labeling);
  const DualPathSplit split = dual_path_prepare(labeling, request);
  MulticastRoute route;
  route.source = request.source;
  if (!split.high.empty()) {
    route.paths.push_back(
        router.route_path(request.source, split.high, std::nullopt, kHighChannelClass));
  }
  if (!split.low.empty()) {
    route.paths.push_back(
        router.route_path(request.source, split.low, std::nullopt, kLowChannelClass));
  }
  return route;
}

}  // namespace mcnet::mcast
