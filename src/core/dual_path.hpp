// Dual-path deadlock-free multicast routing (Section 6.2.2, Figures 6.11
// and 6.12; hypercube instantiation in Section 6.3).
//
// Message preparation splits the destinations into D_H (labels above the
// source, sorted ascending) and D_L (labels below, sorted descending); the
// two sublists are served by two path worms routed with R, one confined to
// the high-channel subnetwork and one to the low-channel subnetwork.  Both
// subnetworks are acyclic, so no channel dependency cycle can form
// (Assertion 2 / Corollary 6.1).
#pragma once

#include "core/routing_function.hpp"

namespace mcnet::mcast {

/// Channel-class tags carried by path routes so double-channel simulations
/// can map each path into its own physical subnetwork.
inline constexpr std::uint8_t kHighChannelClass = 0;
inline constexpr std::uint8_t kLowChannelClass = 1;

/// Message preparation (Fig. 6.11): destinations above the source sorted by
/// ascending label, below sorted by descending label.
struct DualPathSplit {
  std::vector<topo::NodeId> high;  // ascending label order
  std::vector<topo::NodeId> low;   // descending label order
};
[[nodiscard]] DualPathSplit dual_path_prepare(const ham::Labeling& labeling,
                                              const MulticastRequest& request);

[[nodiscard]] MulticastRoute dual_path_route(const topo::Topology& topology,
                                             const ham::Labeling& labeling,
                                             const MulticastRequest& request);

}  // namespace mcnet::mcast
