#include "analysis/instances.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcnet::analysis {

namespace {

using topo::NodeId;

// C(n, s) with saturation (the counts here stay tiny, but be safe).
std::size_t binomial(std::size_t n, std::size_t s) {
  if (s > n) return 0;
  std::size_t r = 1;
  for (std::size_t i = 1; i <= s; ++i) {
    const std::size_t num = n - s + i;
    if (r > static_cast<std::size_t>(-1) / num) return static_cast<std::size_t>(-1);
    r = r * num / i;
  }
  return r;
}

}  // namespace

std::size_t count_instances(std::uint32_t num_nodes, std::uint32_t max_set_size) {
  std::size_t total = 0;
  for (std::uint32_t s = 1; s <= max_set_size && s < num_nodes; ++s) {
    total += static_cast<std::size_t>(num_nodes) * binomial(num_nodes - 1, s);
  }
  return total;
}

std::vector<mcast::MulticastRequest> enumerate_instances(const topo::Topology& topology,
                                                         std::uint32_t max_set_size,
                                                         std::size_t max_instances) {
  // An empty enumeration would let every analysis certify vacuously.
  if (max_set_size == 0) {
    throw std::invalid_argument("AnalysisConfig.max_set_size must be >= 1 (got 0)");
  }
  const std::uint32_t n = topology.num_nodes();
  const std::size_t total = count_instances(n, max_set_size);
  const std::size_t stride =
      max_instances == 0 || total <= max_instances ? 1 : (total + max_instances - 1) / max_instances;

  std::vector<mcast::MulticastRequest> out;
  out.reserve(std::min(total, total / stride + 1));
  std::size_t index = 0;

  std::vector<NodeId> others(n - 1);
  for (NodeId src = 0; src < n; ++src) {
    std::size_t o = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (v != src) others[o++] = v;
    }
    for (std::uint32_t s = 1; s <= max_set_size && s <= n - 1; ++s) {
      // Lexicographic combinations of `others` taken s at a time.
      std::vector<std::uint32_t> pick(s);
      for (std::uint32_t i = 0; i < s; ++i) pick[i] = i;
      while (true) {
        if (index++ % stride == 0) {
          mcast::MulticastRequest req;
          req.source = src;
          req.destinations.reserve(s);
          for (const std::uint32_t i : pick) req.destinations.push_back(others[i]);
          out.push_back(std::move(req));
        }
        // Advance the combination.
        std::int64_t j = static_cast<std::int64_t>(s) - 1;
        while (j >= 0 && pick[static_cast<std::size_t>(j)] ==
                             n - 1 - s + static_cast<std::uint32_t>(j + 1) - 1) {
          --j;
        }
        if (j < 0) break;
        ++pick[static_cast<std::size_t>(j)];
        for (auto i = static_cast<std::uint32_t>(j) + 1; i < s; ++i) {
          pick[i] = pick[i - 1] + 1;
        }
      }
    }
  }
  return out;
}

}  // namespace mcnet::analysis
