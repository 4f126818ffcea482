#include "core/fixed_path.hpp"

#include <algorithm>

namespace mcnet::mcast {

MulticastRoute fixed_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                                const MulticastRequest& request) {
  (void)topology;  // adjacency is implied by the Hamiltonian labeling
  const DualPathSplit split = dual_path_prepare(labeling, request);
  const std::uint32_t ls = labeling.label(request.source);

  MulticastRoute route;
  route.source = request.source;

  const auto emit = [&](const std::vector<topo::NodeId>& side, bool high,
                        std::uint8_t channel_class) {
    if (side.empty()) return;
    // The side list is sorted with the extreme label last.
    const std::uint32_t extreme = labeling.label(side.back());
    PathRoute path;
    path.channel_class = channel_class;
    std::size_t next_target = 0;
    for (std::uint32_t l = ls;; high ? ++l : --l) {
      path.nodes.push_back(labeling.node_at(l));
      if (next_target < side.size() && labeling.label(side[next_target]) == l) {
        path.delivery_hops.push_back(static_cast<std::uint32_t>(path.nodes.size() - 1));
        ++next_target;
      }
      if (l == extreme) break;
    }
    route.paths.push_back(std::move(path));
  };
  emit(split.high, /*high=*/true, kHighChannelClass);
  emit(split.low, /*high=*/false, kLowChannelClass);
  return route;
}

}  // namespace mcnet::mcast
