#include "core/dc_xfirst_tree.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>

#include "core/sublists.hpp"

namespace mcnet::mcast {

namespace {

using topo::Coord2;
using topo::NodeId;

// X-first tree restricted to one quadrant subnetwork (Fig. 6.6 generalised
// to all four quadrants): advance in the quadrant's X direction while any
// destination lies strictly ahead in X, branching off a Y-column sublist at
// each matching column.  The destinations are dests[begin, end); their
// column and ahead sublists are appended to `dests` while the subtrees are
// routed.
void forward(const topo::Mesh2D& mesh, TreeRoute& tree, std::vector<Coord2>& dests,
             std::size_t begin, std::size_t end, NodeId w, std::int32_t link_into_w,
             std::int32_t sx, std::int32_t sy) {
  const Coord2 c = mesh.coord(w);
  const std::size_t top = dests.size();
  // 0 = column, 1 = ahead, 2 = arrived.
  const auto sub = append_sublists<2>(dests, begin, end, [c](Coord2 d) -> std::size_t {
    return d.x != c.x ? 1 : d.y != c.y ? 0 : 2;
  });
  const std::size_t arrived = end - begin - (sub[2] - sub[0]);
  if (arrived != 0 && link_into_w < 0) throw std::logic_error("source cannot be a destination");
  tree.delivery_links.insert(tree.delivery_links.end(), arrived,
                             static_cast<std::uint32_t>(link_into_w));
  if (sub[0] != sub[1]) {
    const NodeId next = mesh.node(c.x, c.y + sy);
    const auto link = static_cast<std::int32_t>(tree.add_link(w, next, link_into_w));
    forward(mesh, tree, dests, sub[0], sub[1], next, link, sx, sy);
  }
  if (sub[1] != sub[2]) {
    const NodeId next = mesh.node(c.x + sx, c.y);
    const auto link = static_cast<std::int32_t>(tree.add_link(w, next, link_into_w));
    forward(mesh, tree, dests, sub[1], sub[2], next, link, sx, sy);
  }
  dests.resize(top);
}

}  // namespace

Quadrant quadrant_of(Coord2 source, Coord2 destination) {
  const std::int32_t dx = destination.x - source.x;
  const std::int32_t dy = destination.y - source.y;
  if (dx > 0 && dy >= 0) return Quadrant::kPosXPosY;
  if (dx <= 0 && dy > 0) return Quadrant::kNegXPosY;
  if (dx < 0 && dy <= 0) return Quadrant::kNegXNegY;
  return Quadrant::kPosXNegY;  // dx >= 0 && dy < 0 (dx == dy == 0 excluded)
}

std::uint8_t quadrant_channel_copy(Quadrant q, std::int32_t dx, std::int32_t dy) {
  // Copy assignment: +X copies -> {+X+Y: 0, +X-Y: 1}; -X -> {-X-Y: 0,
  // -X+Y: 1}; +Y -> {+X+Y: 0, -X+Y: 1}; -Y -> {+X-Y: 0, -X-Y: 1}.
  if (dx > 0) return q == Quadrant::kPosXPosY ? 0 : 1;
  if (dx < 0) return q == Quadrant::kNegXNegY ? 0 : 1;
  if (dy > 0) return q == Quadrant::kPosXPosY ? 0 : 1;
  if (dy < 0) return q == Quadrant::kPosXNegY ? 0 : 1;
  throw std::invalid_argument("zero direction");
}

MulticastRoute dc_xfirst_tree_route(const topo::Mesh2D& mesh,
                                    const MulticastRequest& request) {
  thread_local std::vector<Coord2> dests;
  dests.clear();
  const Coord2 s = mesh.coord(request.source);
  // Per quadrant: the destinations' X-first path lengths, which bound the
  // quadrant tree's links.
  std::array<std::size_t, 4> path_links{};
  for (const NodeId d : request.destinations) {
    const Coord2 c = mesh.coord(d);
    dests.push_back(c);
    path_links[static_cast<std::size_t>(quadrant_of(s, c))] +=
        static_cast<std::size_t>(std::abs(c.x - s.x) + std::abs(c.y - s.y));
  }
  const auto quadrants = append_sublists<4>(dests, 0, dests.size(), [s](Coord2 c) {
    return static_cast<std::size_t>(quadrant_of(s, c));
  });

  static constexpr std::array<std::pair<std::int32_t, std::int32_t>, 4> kSigns = {
      {{+1, +1}, {-1, +1}, {-1, -1}, {+1, -1}}};

  MulticastRoute route;
  route.source = request.source;
  std::size_t trees = 0;
  for (std::size_t q = 0; q < 4; ++q) trees += quadrants[q] != quadrants[q + 1] ? 1 : 0;
  route.trees.reserve(trees);
  for (std::size_t q = 0; q < 4; ++q) {
    if (quadrants[q] == quadrants[q + 1]) continue;
    TreeRoute& tree = route.trees.emplace_back();
    tree.source = request.source;
    tree.channel_class = static_cast<std::uint8_t>(q);
    tree.links.reserve(std::min<std::size_t>(path_links[q], mesh.num_nodes() - 1));
    tree.delivery_links.reserve(quadrants[q + 1] - quadrants[q]);
    forward(mesh, tree, dests, quadrants[q], quadrants[q + 1], request.source, -1,
            kSigns[q].first, kSigns[q].second);
  }
  return route;
}

}  // namespace mcnet::mcast
