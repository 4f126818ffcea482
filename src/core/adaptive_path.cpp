#include "core/adaptive_path.hpp"

#include "core/route_error.hpp"

namespace mcnet::mcast {

void monotone_candidates_into(const topo::Topology& topology, const ham::Labeling& labeling,
                              topo::NodeId cur, topo::NodeId dst,
                              std::vector<topo::NodeId>& out) {
  out.clear();
  const std::uint32_t lc = labeling.label(cur);
  const std::uint32_t ld = labeling.label(dst);
  const bool high = lc < ld;
  const std::uint32_t dist = topology.distance(cur, dst);
  bool have_reducing = false;
  for (const topo::NodeId p : topology.neighbors(cur)) {
    const std::uint32_t lp = labeling.label(p);
    const bool monotone = high ? (lp > lc && lp <= ld) : (lp < lc && lp >= ld);
    if (!monotone) continue;
    const bool reducing = topology.distance(p, dst) < dist;
    if (reducing && !have_reducing) {
      // First distance-reducing candidate: drop the weaker any-monotone set.
      out.clear();
      have_reducing = true;
    }
    if (reducing == have_reducing) out.push_back(p);
  }
}

std::vector<topo::NodeId> monotone_candidates(const topo::Topology& topology,
                                              const ham::Labeling& labeling,
                                              topo::NodeId cur, topo::NodeId dst) {
  std::vector<topo::NodeId> out;
  monotone_candidates_into(topology, labeling, cur, dst, out);
  return out;
}

namespace {

PathRoute random_walk(const topo::Topology& topology, const ham::Labeling& labeling,
                      topo::NodeId source, const std::vector<topo::NodeId>& targets,
                      std::uint8_t channel_class, evsim::Rng& rng) {
  PathRoute path;
  path.channel_class = channel_class;
  path.nodes.push_back(source);
  topo::NodeId w = source;
  std::vector<topo::NodeId> cand;
  for (const topo::NodeId d : targets) {
    while (w != d) {
      monotone_candidates_into(topology, labeling, w, d, cand);
      if (cand.empty()) {
        throw RouteError("adaptive routing stuck", w, labeling.label(w), d);
      }
      w = cand[rng.uniform_int(0, static_cast<std::uint32_t>(cand.size() - 1))];
      path.nodes.push_back(w);
      if (path.nodes.size() > labeling.size() + 1) {
        throw RouteError("adaptive routing loops", w, labeling.label(w), d);
      }
    }
    path.delivery_hops.push_back(static_cast<std::uint32_t>(path.nodes.size() - 1));
  }
  return path;
}

}  // namespace

MulticastRoute adaptive_dual_path_route(const topo::Topology& topology,
                                        const ham::Labeling& labeling,
                                        const MulticastRequest& request, evsim::Rng& rng) {
  thread_local DualPathSplit split;
  dual_path_prepare(labeling, request, split);
  MulticastRoute route;
  route.source = request.source;
  if (!split.high.empty()) {
    route.paths.push_back(
        random_walk(topology, labeling, request.source, split.high, kHighChannelClass, rng));
  }
  if (!split.low.empty()) {
    route.paths.push_back(
        random_walk(topology, labeling, request.source, split.low, kLowChannelClass, rng));
  }
  return route;
}

}  // namespace mcnet::mcast
