#include "topology/mesh2d.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mcnet::topo {

Mesh2D::Mesh2D(std::uint32_t width, std::uint32_t height)
    : width_(width), height_(height) {
  if (width == 0 || height == 0) throw std::invalid_argument("mesh dimensions must be positive");
  const std::uint64_t nodes = std::uint64_t{width} * height;
  if (nodes > kMaxNodes) {
    throw std::invalid_argument("mesh " + std::to_string(width) + "x" + std::to_string(height) +
                                " exceeds the topology limit of " + std::to_string(kMaxNodes) +
                                " nodes");
  }
  const auto n = static_cast<std::uint32_t>(nodes);
  std::vector<std::vector<NodeId>> adj(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    const Coord2 c = {static_cast<std::int32_t>(id % width), static_cast<std::int32_t>(id / width)};
    // Order: +X, -X, +Y, -Y.
    const Coord2 cand[4] = {{c.x + 1, c.y}, {c.x - 1, c.y}, {c.x, c.y + 1}, {c.x, c.y - 1}};
    for (const Coord2& d : cand) {
      if (contains(d)) adj[id].push_back(node(d));
    }
  }
  build(adj);
}

std::string Mesh2D::name() const {
  return "mesh2d(" + std::to_string(width_) + "x" + std::to_string(height_) + ")";
}

std::uint32_t Mesh2D::distance(NodeId u, NodeId v) const {
  const Coord2 a = coord(u);
  const Coord2 b = coord(v);
  return static_cast<std::uint32_t>(std::abs(a.x - b.x) + std::abs(a.y - b.y));
}

NodeId Mesh2D::closest_on_shortest_paths(NodeId s, NodeId t, NodeId w) const {
  const Coord2 a = coord(s);
  const Coord2 b = coord(t);
  const Coord2 p = coord(w);
  const std::int32_t x1 = std::min(a.x, b.x);
  const std::int32_t x2 = std::max(a.x, b.x);
  const std::int32_t y1 = std::min(a.y, b.y);
  const std::int32_t y2 = std::max(a.y, b.y);
  const Coord2 v = {std::clamp(p.x, x1, x2), std::clamp(p.y, y1, y2)};
  return node(v);
}

}  // namespace mcnet::topo
