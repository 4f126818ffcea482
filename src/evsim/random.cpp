#include "evsim/random.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mcnet::evsim {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<topo::NodeId> Rng::sample_destinations(std::uint32_t num_nodes,
                                                   topo::NodeId source, std::uint32_t k) {
  if (k + 1 > num_nodes) throw std::invalid_argument("too many destinations requested");
  // Sample k distinct values from [0, num_nodes - 2] (Floyd), then map past
  // the source so it is never selected.  Picks are marked with this call's
  // epoch in a per-thread array, so no set is built per call.
  const std::uint32_t pool = num_nodes - 1;
  thread_local std::vector<std::uint64_t> chosen_epoch;
  thread_local std::uint64_t epoch = 0;
  if (chosen_epoch.size() < pool) chosen_epoch.resize(pool, 0);
  ++epoch;
  std::vector<topo::NodeId> result;
  result.reserve(k);
  for (std::uint32_t j = pool - k; j < pool; ++j) {
    const std::uint32_t t = uniform_int(0, j);
    const std::uint32_t pick = chosen_epoch[t] == epoch ? j : t;
    chosen_epoch[pick] = epoch;
    const topo::NodeId node = pick >= source ? pick + 1 : pick;
    result.push_back(node);
  }
  std::shuffle(result.begin(), result.end(), engine_);
  return result;
}

}  // namespace mcnet::evsim
