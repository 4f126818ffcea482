// Worm specifications: the simulator-facing form of a multicast route.
//
// Both path and tree multicasts are modelled as lock-step worm trees (a
// path is the single-branch special case, where lock-step degenerates to
// ordinary per-hop wormhole advancement):
//
//  * at global progress p the worm tries to acquire every link at depth
//    p + 1; following the nCUBE-2 semantics of Section 6.1, granted
//    channels are held while the worm waits for the rest of the frontier;
//  * when the whole frontier is granted, every flit of the worm advances
//    one hop per flit time;
//  * the link at depth d is released when the tail flit has crossed it
//    (progress d + L for an L-flit message) and the destination reached
//    through depth d receives the complete message at progress d + L - 1;
//  * when the deepest branch arrives, the remaining flits drain into the
//    destinations at channel rate.
#pragma once

#include <cstdint>
#include <vector>

#include "core/multicast.hpp"
#include "topology/mesh2d.hpp"
#include "topology/topology.hpp"

namespace mcnet::worm {

using topo::ChannelId;
using topo::NodeId;

struct WormLink {
  ChannelId channel = topo::kInvalidChannel;
  NodeId from = topo::kInvalidNode;
  NodeId to = topo::kInvalidNode;
  std::uint32_t depth = 1;  // hops from the source; root links have depth 1
  std::int8_t copy = -1;    // kAnyCopy, or a pinned physical copy
};

/// One worm: links sorted by ascending depth, plus the destinations
/// delivered at each depth.
struct WormSpec {
  std::vector<WormLink> links;
  /// (depth, destination) pairs sorted by depth.
  std::vector<std::pair<std::uint32_t, NodeId>> deliveries;

  [[nodiscard]] std::uint32_t max_depth() const {
    return links.empty() ? 0 : links.back().depth;
  }
};

/// Convert a MulticastRoute into worm specs with the generic copy policy:
/// path worms use any copy (their subnetworks are acyclic per label
/// direction regardless of copy), tree worms pin copy channel_class %
/// copies.  Throws std::invalid_argument when `copies` is 0, and
/// std::logic_error if a worm would use the same (channel, pinned copy)
/// twice (such a worm would self-deadlock).
[[nodiscard]] std::vector<WormSpec> make_worm_specs(const topo::Topology& topology,
                                                    const mcast::MulticastRoute& route,
                                                    std::uint8_t copies);

/// Mesh-aware conversion: trees whose channel_class is a quadrant index
/// (the double-channel X-first algorithm) pin each hop to the copy its
/// quadrant subnetwork owns (Section 6.2.1's channel partition).
[[nodiscard]] std::vector<WormSpec> make_worm_specs(const topo::Mesh2D& mesh,
                                                    const mcast::MulticastRoute& route,
                                                    std::uint8_t copies);

}  // namespace mcnet::worm
