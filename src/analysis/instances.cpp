#include "analysis/instances.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mcnet::analysis {

namespace {

using topo::NodeId;

constexpr std::size_t kSaturated = static_cast<std::size_t>(-1);

std::size_t saturating_mul(std::size_t a, std::size_t b) {
  std::size_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? kSaturated : r;
}

std::size_t saturating_add(std::size_t a, std::size_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

// C(n, s), saturating.
std::size_t binomial(std::size_t n, std::size_t s) {
  if (s > n) return 0;
  s = std::min(s, n - s);
  std::size_t r = 1;
  for (std::size_t i = 1; i <= s; ++i) {
    // r * (n - s + i) / i is exact: r * (n - s + i) is i * C(n - s + i, i).
    if (__builtin_mul_overflow(r, n - s + i, &r)) return kSaturated;
    r /= i;
  }
  return r;
}

// The rank-th s-subset of {0, ..., m - 1} in lexicographic order, ascending,
// into pick[0, s).  Each element but the last is found by binary search:
// with elements from `lo` on and k of them left, C(m - lo, k) - C(m - v, k)
// subsets start below v.
void unrank_combination(std::uint32_t m, std::uint32_t s, std::size_t rank,
                        std::vector<std::uint32_t>& pick) {
  pick.resize(s);
  std::uint32_t lo = 0;
  for (std::uint32_t j = 0; j + 1 < s; ++j) {
    const std::uint32_t k = s - j;
    const std::size_t all = binomial(m - lo, k);
    // Largest v in [lo, m - k] with C(m - lo, k) - C(m - v, k) <= rank.
    std::uint32_t a = lo;
    std::uint32_t b = m - k;
    while (a < b) {
      const std::uint32_t v = a + (b - a + 1) / 2;
      if (all - binomial(m - v, k) <= rank) {
        a = v;
      } else {
        b = v - 1;
      }
    }
    rank -= all - binomial(m - a, k);
    pick[j] = a;
    lo = a + 1;
  }
  pick[s - 1] = lo + static_cast<std::uint32_t>(rank);
}

}  // namespace

std::size_t count_instances(std::uint32_t num_nodes, std::uint32_t max_set_size) {
  std::size_t total = 0;
  for (std::uint32_t s = 1; s <= max_set_size && s < num_nodes; ++s) {
    total = saturating_add(total, saturating_mul(num_nodes, binomial(num_nodes - 1, s)));
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
  if (total == kSaturated) {
    throw std::invalid_argument("AnalysisConfig.max_set_size " + std::to_string(max_set_size) +
                                " on " + std::to_string(n) +
                                " nodes gives more instances than can be counted");
  }
  const std::size_t stride = max_instances == 0 || total <= max_instances
                                 ? 1
                                 : total / max_instances + (total % max_instances != 0);

  // Instance i is source i / per_source, then the destination sets of size
  // 1, 2, ... in lexicographic order over the other nodes.  Every stride-th
  // index is kept: a jump that only moves the last element of the previous
  // kept set moves it, any other is unranked.
  const std::uint32_t sizes = std::min(max_set_size, n - 1);
  std::vector<std::size_t> of_size(sizes + 1, 0);  // C(n - 1, s)
  for (std::uint32_t s = 1; s <= sizes; ++s) of_size[s] = binomial(n - 1, s);
  const std::size_t per_source = n == 0 ? 0 : total / n;
  const std::size_t kept = total == 0 ? 0 : (total - 1) / stride + 1;

  std::vector<mcast::MulticastRequest> out;
  out.reserve(kept);
  std::vector<std::uint32_t> pick;
  NodeId src = 0;
  std::size_t offset = 0;  // index within the source's instances
  std::uint32_t last_s = 0;
  std::size_t last_rank = 0;
  for (std::size_t k = 0; k < kept; ++k) {
    std::size_t rank = offset;
    std::uint32_t s = 1;
    while (rank >= of_size[s]) rank -= of_size[s++];
    if (s == last_s && rank - last_rank <= n - 2 - pick.back()) {
      pick.back() += static_cast<std::uint32_t>(rank - last_rank);
    } else {
      unrank_combination(n - 1, s, rank, pick);
    }
    last_s = s;
    last_rank = rank;
    mcast::MulticastRequest& req = out.emplace_back();
    req.source = src;
    req.destinations.reserve(s);
    for (const std::uint32_t i : pick) req.destinations.push_back(i < src ? i : i + 1);
    if (stride < per_source - offset) {
      offset += stride;
    } else {
      const std::size_t rest = stride - (per_source - offset);
      src += static_cast<NodeId>(1 + rest / per_source);
      offset = rest % per_source;
      last_s = 0;
    }
  }
  return out;
}

}  // namespace mcnet::analysis
