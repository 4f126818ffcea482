// Systematic enumeration of multicast instances for the static analyzer:
// every (source, destination-set) pair with bounded set size, in a
// deterministic order, optionally stride-sampled down to a budget so large
// topologies stay analyzable in CI.
#pragma once

#include <cstddef>
#include <vector>

#include "core/multicast.hpp"
#include "topology/topology.hpp"

namespace mcnet::analysis {

/// Number of instances enumerate_instances() would produce before
/// stride-sampling: N * sum_{s=1..max_set_size} C(N-1, s), saturating at
/// SIZE_MAX when it does not fit.
[[nodiscard]] std::size_t count_instances(std::uint32_t num_nodes,
                                          std::uint32_t max_set_size);

/// Enumerate multicast requests over `topology`: for every source, every
/// destination set of size 1..max_set_size (combinations of the other
/// nodes in lexicographic order).  When the total exceeds `max_instances`
/// the sequence is stride-sampled (every ceil(total/max)-th instance) so
/// coverage stays spread over sources and set shapes instead of being
/// truncated to the low node ids; each kept instance is reached by
/// unranking, so the cost follows the instances kept, not the space.
/// Throws std::invalid_argument when max_set_size is 0 (no instance would
/// be analyzed, so every verdict built on the enumeration would hold
/// vacuously) or when the instance count saturates (the space cannot be
/// indexed).
[[nodiscard]] std::vector<mcast::MulticastRequest> enumerate_instances(
    const topo::Topology& topology, std::uint32_t max_set_size,
    std::size_t max_instances = static_cast<std::size_t>(-1));

}  // namespace mcnet::analysis
