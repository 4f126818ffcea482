// Fixed-path multicast routing (Section 6.2.2, Fig. 6.17): the simplest of
// the path-like schemes.  The upper worm follows the Hamiltonian path
// itself, visiting *every* node in increasing label order until the highest
// labeled destination; the lower worm symmetrically in decreasing order.
// Traffic is exactly the label distance to the extreme destinations, so the
// scheme wastes channels for small destination sets but converges to
// dual-path behaviour for large ones (Fig. 7.11).
#pragma once

#include "core/dual_path.hpp"

namespace mcnet::mcast {

[[nodiscard]] MulticastRoute fixed_path_route(const topo::Topology& topology,
                                              const ham::Labeling& labeling,
                                              const MulticastRequest& request);

}  // namespace mcnet::mcast
