#include "core/dual_path.hpp"

#include <algorithm>

namespace mcnet::mcast {

void dual_path_prepare(const ham::Labeling& labeling, const MulticastRequest& request,
                       DualPathSplit& split) {
  const std::uint32_t ls = labeling.label(request.source);
  const auto num_high = static_cast<std::size_t>(
      std::count_if(request.destinations.begin(), request.destinations.end(),
                    [&](topo::NodeId d) { return labeling.label(d) > ls; }));
  split.high.clear();
  split.low.clear();
  split.high.reserve(num_high);
  split.low.reserve(request.destinations.size() - num_high);
  for (const topo::NodeId d : request.destinations) {
    (labeling.label(d) > ls ? split.high : split.low).push_back(d);
  }
  std::sort(split.high.begin(), split.high.end(), [&](topo::NodeId a, topo::NodeId b) {
    return labeling.label(a) < labeling.label(b);
  });
  std::sort(split.low.begin(), split.low.end(), [&](topo::NodeId a, topo::NodeId b) {
    return labeling.label(a) > labeling.label(b);
  });
}

MulticastRoute dual_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                               const MulticastRequest& request) {
  const LabelRouter router(topology, labeling);
  thread_local DualPathSplit split;
  dual_path_prepare(labeling, request, split);
  MulticastRoute route;
  route.source = request.source;
  route.paths.reserve(static_cast<std::size_t>(!split.high.empty()) +
                      static_cast<std::size_t>(!split.low.empty()));
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
