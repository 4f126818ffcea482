#include "topology/mesh3d.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mcnet::topo {

Mesh3D::Mesh3D(std::uint32_t nx, std::uint32_t ny, std::uint32_t nz)
    : nx_(nx), ny_(ny), nz_(nz) {
  if (nx == 0 || ny == 0 || nz == 0) {
    throw std::invalid_argument("mesh dimensions must be positive");
  }
  // Two 32-bit factors fit in 64 bits; the third multiplies a count
  // already checked against the cap.
  std::uint64_t nodes = std::uint64_t{nx} * ny;
  if (nodes <= kMaxNodes) nodes *= nz;
  if (nodes > kMaxNodes) {
    throw std::invalid_argument("mesh3 " + std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                                std::to_string(nz) + " exceeds the topology limit of " +
                                std::to_string(kMaxNodes) + " nodes");
  }
  const auto n = static_cast<std::uint32_t>(nodes);
  std::vector<std::vector<NodeId>> adj(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    const Coord3 c = coord(id);
    const Coord3 cand[6] = {{c.x + 1, c.y, c.z}, {c.x - 1, c.y, c.z}, {c.x, c.y + 1, c.z},
                            {c.x, c.y - 1, c.z}, {c.x, c.y, c.z + 1}, {c.x, c.y, c.z - 1}};
    for (const Coord3& d : cand) {
      if (contains(d)) adj[id].push_back(node(d));
    }
  }
  build(adj);
}

std::string Mesh3D::name() const {
  return "mesh3d(" + std::to_string(nx_) + "x" + std::to_string(ny_) + "x" +
         std::to_string(nz_) + ")";
}

std::uint32_t Mesh3D::distance(NodeId u, NodeId v) const {
  const Coord3 a = coord(u);
  const Coord3 b = coord(v);
  return static_cast<std::uint32_t>(std::abs(a.x - b.x) + std::abs(a.y - b.y) +
                                    std::abs(a.z - b.z));
}

NodeId Mesh3D::closest_on_shortest_paths(NodeId s, NodeId t, NodeId w) const {
  const Coord3 a = coord(s);
  const Coord3 b = coord(t);
  const Coord3 p = coord(w);
  const Coord3 v = {std::clamp(p.x, std::min(a.x, b.x), std::max(a.x, b.x)),
                    std::clamp(p.y, std::min(a.y, b.y), std::max(a.y, b.y)),
                    std::clamp(p.z, std::min(a.z, b.z), std::max(a.z, b.z))};
  return node(v);
}

}  // namespace mcnet::topo
