#include "topology/hypercube.hpp"

#include <stdexcept>
#include <string>

namespace mcnet::topo {

Hypercube::Hypercube(std::uint32_t dimensions) : n_(dimensions) {
  if (dimensions == 0 || dimensions > 20) {
    throw std::invalid_argument("hypercube dimension " + std::to_string(dimensions) +
                                " must be in [1, 20] (the limit is 2^20 nodes)");
  }
  const std::uint32_t n = 1u << dimensions;
  std::vector<std::vector<NodeId>> adj(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    adj[u].reserve(dimensions);
    for (std::uint32_t d = 0; d < dimensions; ++d) {
      adj[u].push_back(u ^ (1u << d));
    }
  }
  build(adj);
}

std::string Hypercube::name() const { return std::to_string(n_) + "-cube"; }

}  // namespace mcnet::topo
