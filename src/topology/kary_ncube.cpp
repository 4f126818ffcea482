#include "topology/kary_ncube.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mcnet::topo {

KAryNCube::KAryNCube(std::uint32_t k, std::uint32_t n, bool wrap)
    : k_(k), n_(n), wrap_(wrap) {
  if (k < 2 || n == 0) throw std::invalid_argument("k-ary n-cube requires k >= 2, n >= 1");
  pow_.resize(n + 1);
  pow_[0] = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pow_[i] > kMaxNodes / k) {
      throw std::invalid_argument("k-ary n-cube " + std::to_string(k) + "x" + std::to_string(n) +
                                  " exceeds the topology limit of " + std::to_string(kMaxNodes) +
                                  " nodes");
    }
    pow_[i + 1] = pow_[i] * k;
  }
  const std::uint32_t total = pow_[n];
  std::vector<std::vector<NodeId>> adj(total);
  for (std::uint32_t u = 0; u < total; ++u) {
    for (std::uint32_t d = 0; d < n; ++d) {
      const std::uint32_t dig = digit(u, d);
      const std::uint32_t up = dig + 1;
      const std::uint32_t down = dig == 0 ? k - 1 : dig - 1;
      if (up < k) {
        adj[u].push_back(with_digit(u, d, up));
      } else if (wrap_ && k > 2) {
        adj[u].push_back(with_digit(u, d, 0));
      }
      // -1 neighbour; for k == 2 the ring collapses to a single link.
      if (k > 2 || dig == 1) {
        if (dig > 0) {
          adj[u].push_back(with_digit(u, d, down));
        } else if (wrap_) {
          adj[u].push_back(with_digit(u, d, k - 1));
        }
      }
    }
  }
  build(adj);
}

std::string KAryNCube::name() const {
  return std::to_string(k_) + "-ary " + std::to_string(n_) + "-cube" +
         (wrap_ ? "" : " (mesh)");
}

std::uint32_t KAryNCube::digit(NodeId u, std::uint32_t dim) const {
  return (u / pow_[dim]) % k_;
}

NodeId KAryNCube::with_digit(NodeId u, std::uint32_t dim, std::uint32_t value) const {
  return u - digit(u, dim) * pow_[dim] + value * pow_[dim];
}

std::uint32_t KAryNCube::distance(NodeId u, NodeId v) const {
  std::uint32_t d = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t a = digit(u, i);
    const std::uint32_t b = digit(v, i);
    const std::uint32_t lin = a > b ? a - b : b - a;
    d += wrap_ ? std::min(lin, k_ - lin) : lin;
  }
  return d;
}

std::uint32_t KAryNCube::diameter() const {
  const std::uint32_t per_dim = wrap_ ? k_ / 2 : k_ - 1;
  return per_dim * n_;
}

}  // namespace mcnet::topo
