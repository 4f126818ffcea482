#include "core/xfirst_mt.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/sublists.hpp"

namespace mcnet::mcast {

namespace {

using topo::Coord2;
using topo::NodeId;

// Sublist of a destination at `d` seen from `c`: +X, -X, +Y, -Y (0..3), or
// 4 when the message has arrived.
std::size_t direction(Coord2 c, Coord2 d) {
  if (d.x != c.x) return d.x > c.x ? 0 : 1;
  if (d.y != c.y) return d.y > c.y ? 2 : 3;
  return 4;
}

// Route the destinations dests[begin, end) onward from w, which the message
// reached over link_into_w; their four sublists are appended to `dests`
// while the subtrees are routed.
void forward(const topo::Mesh2D& mesh, TreeRoute& tree, std::vector<Coord2>& dests,
             std::size_t begin, std::size_t end, NodeId w, std::int32_t link_into_w) {
  static constexpr std::int32_t kStep[4][2] = {{+1, 0}, {-1, 0}, {0, +1}, {0, -1}};
  const Coord2 c = mesh.coord(w);
  const std::size_t top = dests.size();
  const auto sub =
      append_sublists<4>(dests, begin, end, [c](Coord2 d) { return direction(c, d); });
  // Local deliveries: recorded on the link that carried the message here.
  const std::size_t arrived = end - begin - (sub[4] - sub[0]);
  if (arrived != 0 && link_into_w < 0) throw std::logic_error("source cannot be a destination");
  tree.delivery_links.insert(tree.delivery_links.end(), arrived,
                             static_cast<std::uint32_t>(link_into_w));
  for (std::size_t dir = 0; dir < 4; ++dir) {
    if (sub[dir] == sub[dir + 1]) continue;
    const NodeId next = mesh.node(c.x + kStep[dir][0], c.y + kStep[dir][1]);
    const auto link = static_cast<std::int32_t>(tree.add_link(w, next, link_into_w));
    forward(mesh, tree, dests, sub[dir], sub[dir + 1], next, link);
  }
  dests.resize(top);
}

}  // namespace

MulticastRoute xfirst_mt_route(const topo::Mesh2D& mesh, const MulticastRequest& request) {
  thread_local std::vector<Coord2> dests;
  dests.clear();
  const Coord2 s = mesh.coord(request.source);
  // The tree is the union of the X-first paths: no more links than their
  // total length, nor than the mesh has nodes besides the source.
  std::size_t path_links = 0;
  for (const NodeId d : request.destinations) {
    const Coord2 c = mesh.coord(d);
    dests.push_back(c);
    path_links += static_cast<std::size_t>(std::abs(c.x - s.x) + std::abs(c.y - s.y));
  }
  TreeRoute tree;
  tree.source = request.source;
  tree.links.reserve(std::min<std::size_t>(path_links, mesh.num_nodes() - 1));
  tree.delivery_links.reserve(request.destinations.size());
  forward(mesh, tree, dests, 0, dests.size(), request.source, -1);
  MulticastRoute route;
  route.source = request.source;
  route.trees.push_back(std::move(tree));
  return route;
}

}  // namespace mcnet::mcast
