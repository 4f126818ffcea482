#include "topology/hamiltonian.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace mcnet::ham {

std::uint32_t HypercubeGrayLabeling::paper_label(std::uint32_t address, std::uint32_t n) {
  // c_{n-1} = 0; c_{n-j} = d_{n-1} xor ... xor d_{n-j+1} for 1 < j <= n,
  // i.e. c_i is the parity of the address bits strictly above bit i.
  std::uint32_t label = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t c = 0;
    for (std::uint32_t j = i + 1; j < n; ++j) c ^= (address >> j) & 1u;
    const std::uint32_t d = (address >> i) & 1u;
    label |= (c ^ d) << i;  // c*!d + !c*d == c xor d
  }
  return label;
}

Labeling::Labeling(std::vector<std::uint32_t> labels)
    : label_(std::move(labels)), node_(label_.size(), topo::kInvalidNode) {
  const auto n = static_cast<std::uint32_t>(label_.size());
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t l = label_[u];
    if (l >= n || node_[l] != topo::kInvalidNode) {
      throw std::invalid_argument("labeling is not a bijection onto 0..N-1");
    }
    node_[l] = u;
  }
}

namespace {

std::vector<std::uint32_t> boustrophedon_labels(const topo::Mesh2D& mesh) {
  const std::uint32_t n = mesh.width();
  std::vector<std::uint32_t> labels(mesh.num_nodes());
  for (NodeId u = 0; u < mesh.num_nodes(); ++u) {
    const topo::Coord2 c = mesh.coord(u);
    const auto y = static_cast<std::uint32_t>(c.y);
    const auto x = static_cast<std::uint32_t>(c.x);
    labels[u] = (y % 2 == 0) ? y * n + x : y * n + n - x - 1;
  }
  return labels;
}

std::vector<std::uint32_t> gray_labels(const topo::Hypercube& cube) {
  std::vector<std::uint32_t> labels(cube.num_nodes());
  for (NodeId u = 0; u < cube.num_nodes(); ++u) {
    labels[u] = HypercubeGrayLabeling::gray_decode(u);
  }
  return labels;
}

std::vector<std::uint32_t> mixed_radix_gray_labels(
    const std::vector<std::uint32_t>& sizes,
    const std::function<std::uint32_t(NodeId, std::uint32_t)>& digit_of) {
  if (sizes.empty()) throw std::invalid_argument("need >= 1 dimension");
  std::uint32_t total = 1;
  for (const std::uint32_t s : sizes) {
    if (s == 0) throw std::invalid_argument("dimension size must be positive");
    total *= s;
  }
  std::vector<std::uint32_t> labels(total);
  for (NodeId u = 0; u < total; ++u) {
    // Most-significant dimension first; dimension i is reflected when the
    // parity of the *node* digits above it is odd -- the mixed-radix
    // generalisation of the paper's c_i = d_{n-1} xor ... xor d_{i+1}.
    std::uint32_t out = 0;
    bool reflect = false;
    for (std::size_t i = sizes.size(); i-- > 0;) {
      const std::uint32_t d = digit_of(u, static_cast<std::uint32_t>(i));
      const std::uint32_t g = reflect ? sizes[i] - 1 - d : d;
      out = out * sizes[i] + g;
      reflect ^= (d % 2 == 1);
    }
    labels[u] = out;
  }
  return labels;
}

}  // namespace

MeshBoustrophedonLabeling::MeshBoustrophedonLabeling(const topo::Mesh2D& mesh)
    : Labeling(boustrophedon_labels(mesh)), mesh_(&mesh) {}

HypercubeGrayLabeling::HypercubeGrayLabeling(const topo::Hypercube& cube)
    : Labeling(gray_labels(cube)), cube_(&cube) {}

MixedRadixGrayLabeling::MixedRadixGrayLabeling(
    const std::vector<std::uint32_t>& sizes,
    const std::function<std::uint32_t(NodeId, std::uint32_t)>& digit_of)
    : Labeling(mixed_radix_gray_labels(sizes, digit_of)) {}

MixedRadixGrayLabeling MixedRadixGrayLabeling::for_mesh3d(const topo::Mesh3D& mesh) {
  return MixedRadixGrayLabeling(
      {mesh.nx(), mesh.ny(), mesh.nz()}, [&mesh](NodeId u, std::uint32_t dim) -> std::uint32_t {
        const topo::Coord3 c = mesh.coord(u);
        return static_cast<std::uint32_t>(dim == 0 ? c.x : (dim == 1 ? c.y : c.z));
      });
}

MixedRadixGrayLabeling MixedRadixGrayLabeling::for_kary(const topo::KAryNCube& cube) {
  return MixedRadixGrayLabeling(
      std::vector<std::uint32_t>(cube.dimensions(), cube.radix()),
      [&cube](NodeId u, std::uint32_t dim) { return cube.digit(u, dim); });
}

std::unique_ptr<Labeling> make_labeling(const topo::Topology& topology) {
  if (const auto* mesh = dynamic_cast<const topo::Mesh2D*>(&topology)) {
    return std::make_unique<MeshBoustrophedonLabeling>(*mesh);
  }
  if (const auto* cube = dynamic_cast<const topo::Hypercube*>(&topology)) {
    return std::make_unique<HypercubeGrayLabeling>(*cube);
  }
  if (const auto* mesh3 = dynamic_cast<const topo::Mesh3D*>(&topology)) {
    return std::make_unique<MixedRadixGrayLabeling>(MixedRadixGrayLabeling::for_mesh3d(*mesh3));
  }
  if (const auto* kary = dynamic_cast<const topo::KAryNCube*>(&topology)) {
    return std::make_unique<MixedRadixGrayLabeling>(MixedRadixGrayLabeling::for_kary(*kary));
  }
  return nullptr;
}

HamiltonCycle::HamiltonCycle(const topo::Topology& topology, std::vector<NodeId> order)
    : order_(std::move(order)) {
  const std::uint32_t n = topology.num_nodes();
  if (order_.size() != n) throw std::invalid_argument("cycle must visit every node once");
  position_.assign(n, topo::kInvalidNode);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId u = order_[i];
    if (u >= n || position_[u] != topo::kInvalidNode) {
      throw std::invalid_argument("cycle repeats or skips a node");
    }
    position_[u] = i;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId u = order_[i];
    const NodeId v = order_[(i + 1) % n];
    if (n > 1 && !topology.adjacent(u, v)) {
      throw std::invalid_argument("consecutive cycle nodes are not adjacent");
    }
  }
}

namespace {

// Comb cycle for a mesh whose *height* is even: row 0 rightward, rows
// 1..H-1 serpentine over columns 1..W-1, then down column 0.  `transpose`
// swaps the roles of x and y (used when only the width is even).
std::vector<NodeId> comb_order(const topo::Mesh2D& mesh, bool transpose) {
  const auto w = static_cast<std::int32_t>(transpose ? mesh.height() : mesh.width());
  const auto h = static_cast<std::int32_t>(transpose ? mesh.width() : mesh.height());
  const auto at = [&](std::int32_t x, std::int32_t y) {
    return transpose ? mesh.node(y, x) : mesh.node(x, y);
  };
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  for (std::int32_t x = 0; x < w; ++x) order.push_back(at(x, 0));
  if (h > 1) {
    if (w == 1) {
      // Degenerate single column: the path up and back is only a valid
      // cycle for h == 2; larger cases are rejected by the caller.
      for (std::int32_t y = 1; y < h; ++y) order.push_back(at(0, y));
      return order;
    }
    for (std::int32_t y = 1; y < h; ++y) {
      const bool leftward = (y % 2 == 1);
      if (leftward) {
        for (std::int32_t x = w - 1; x >= 1; --x) order.push_back(at(x, y));
      } else {
        for (std::int32_t x = 1; x <= w - 1; ++x) order.push_back(at(x, y));
      }
    }
    // The serpentine over h-1 rows ends at column 1 of the top row exactly
    // when h-1 is odd (h even); step to column 0 and descend.
    for (std::int32_t y = h - 1; y >= 1; --y) order.push_back(at(0, y));
  }
  return order;
}

}  // namespace

HamiltonCycle mesh_comb_cycle(const topo::Mesh2D& mesh) {
  if (mesh.num_nodes() == 1) return HamiltonCycle(mesh, {0});
  if (mesh.height() % 2 == 0 && mesh.width() >= 2) {
    return HamiltonCycle(mesh, comb_order(mesh, /*transpose=*/false));
  }
  if (mesh.width() % 2 == 0 && mesh.height() >= 2) {
    return HamiltonCycle(mesh, comb_order(mesh, /*transpose=*/true));
  }
  throw std::invalid_argument(
      "a mesh Hamiltonian cycle requires at least one even dimension >= 2 (fact F1)");
}

HamiltonCycle hypercube_gray_cycle(const topo::Hypercube& cube) {
  std::vector<NodeId> order(cube.num_nodes());
  for (std::uint32_t i = 0; i < cube.num_nodes(); ++i) order[i] = i ^ (i >> 1);
  return HamiltonCycle(cube, std::move(order));
}

}  // namespace mcnet::ham
