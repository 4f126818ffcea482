#include "wormhole/worm.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_set>

#include "core/dc_xfirst_tree.hpp"
#include "wormhole/channel_pool.hpp"

namespace mcnet::worm {

namespace {

// Pinned-copy selector for a tree link.
using CopyFn = std::function<std::int8_t(const mcast::TreeRoute&, NodeId from, NodeId to)>;

WormSpec path_to_spec(const topo::Topology& topology, const mcast::PathRoute& path,
                      std::uint8_t copies) {
  WormSpec spec;
  spec.links.reserve(path.hops());
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    WormLink link;
    link.from = path.nodes[i];
    link.to = path.nodes[i + 1];
    link.channel = topology.channel(link.from, link.to);
    if (link.channel == topo::kInvalidChannel) throw std::logic_error("path uses non-edge");
    link.depth = static_cast<std::uint32_t>(i + 1);
    link.copy = copies > 1 ? kAnyCopy : 0;
    spec.links.push_back(link);
  }
  spec.deliveries.reserve(path.delivery_hops.size());
  for (const std::uint32_t h : path.delivery_hops) {
    if (h == 0) throw std::logic_error("delivery at the source");
    spec.deliveries.emplace_back(h, path.nodes[h]);
  }
  std::sort(spec.deliveries.begin(), spec.deliveries.end());
  return spec;
}

WormSpec tree_to_spec(const topo::Topology& topology, const mcast::TreeRoute& tree,
                      const CopyFn& copy_of) {
  WormSpec spec;
  spec.links.reserve(tree.links.size());
  // TreeRoute links are parent-before-child but not depth-sorted; stable
  // sort by depth and remember the permutation for delivery mapping.
  std::vector<std::uint32_t> order(tree.links.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return tree.links[a].depth < tree.links[b].depth;
  });
  for (const std::uint32_t li : order) {
    const mcast::TreeRoute::Link& l = tree.links[li];
    WormLink link;
    link.from = l.from;
    link.to = l.to;
    link.channel = topology.channel(l.from, l.to);
    if (link.channel == topo::kInvalidChannel) throw std::logic_error("tree uses non-edge");
    link.depth = l.depth;
    link.copy = copy_of(tree, l.from, l.to);
    spec.links.push_back(link);
  }
  for (const std::uint32_t li : tree.delivery_links) {
    const mcast::TreeRoute::Link& l = tree.links[li];
    spec.deliveries.emplace_back(l.depth, l.to);
  }
  std::sort(spec.deliveries.begin(), spec.deliveries.end());

  // A worm that needs the same pinned physical channel twice would wait on
  // itself forever; reject such routes up front.
  std::unordered_set<std::uint64_t> seen;
  for (const WormLink& l : spec.links) {
    if (l.copy == kAnyCopy) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(l.channel) << 8) | static_cast<std::uint8_t>(l.copy);
    if (!seen.insert(key).second) {
      throw std::logic_error("tree worm reuses a physical channel (would self-deadlock)");
    }
  }
  return spec;
}

std::vector<WormSpec> convert(const topo::Topology& topology,
                              const mcast::MulticastRoute& route, std::uint8_t copies,
                              const CopyFn& tree_copy) {
  if (copies == 0) throw std::invalid_argument("make_worm_specs: copies must be at least 1");
  std::vector<WormSpec> specs;
  specs.reserve(route.paths.size() + route.trees.size());
  for (const mcast::PathRoute& p : route.paths) {
    if (p.hops() == 0) continue;  // nothing to transmit
    specs.push_back(path_to_spec(topology, p, copies));
  }
  for (const mcast::TreeRoute& t : route.trees) {
    if (t.links.empty()) continue;
    specs.push_back(tree_to_spec(topology, t, tree_copy));
  }
  return specs;
}

}  // namespace

std::vector<WormSpec> make_worm_specs(const topo::Topology& topology,
                                      const mcast::MulticastRoute& route,
                                      std::uint8_t copies) {
  return convert(topology, route, copies,
                 [copies](const mcast::TreeRoute& tree, NodeId, NodeId) -> std::int8_t {
                   return static_cast<std::int8_t>(tree.channel_class % copies);
                 });
}

std::vector<WormSpec> make_worm_specs(const topo::Mesh2D& mesh,
                                      const mcast::MulticastRoute& route,
                                      std::uint8_t copies) {
  if (copies < 2) return make_worm_specs(static_cast<const topo::Topology&>(mesh), route, copies);
  return convert(mesh, route, copies,
                 [&mesh](const mcast::TreeRoute& tree, NodeId from, NodeId to) -> std::int8_t {
                   const topo::Coord2 a = mesh.coord(from);
                   const topo::Coord2 b = mesh.coord(to);
                   return static_cast<std::int8_t>(mcast::quadrant_channel_copy(
                       static_cast<mcast::Quadrant>(tree.channel_class % 4), b.x - a.x,
                       b.y - a.y));
                 });
}

}  // namespace mcnet::worm
