// Core multicast types: multicast sets, route artefacts produced by the
// routing algorithms (paths, trees, stars), and the traffic / distance
// metrics of Chapter 3 ("traffic" = number of channel traversals, "network
// latency" proxied statically by hops to each destination).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.hpp"

namespace mcnet::mcast {

using topo::NodeId;

/// Reusable duplicate-scan workspace for request normalization: an
/// epoch-tagged mark per node id, grown on demand and never cleared, so a
/// scan over an n-node id space costs O(destinations) with zero allocations
/// once the buffer has reached n.  One instance per thread; not
/// thread-safe itself.
class RequestScratch {
 public:
  /// Start a new scan over a `num_nodes`-node id space.
  void begin(std::uint32_t num_nodes) {
    if (mark_.size() < num_nodes) mark_.resize(num_nodes, 0);
    ++epoch_;
  }
  /// Mark `id`; true when this is its first occurrence in the current scan.
  [[nodiscard]] bool mark(NodeId id) {
    if (mark_[id] == epoch_) return false;
    mark_[id] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint64_t> mark_;
  std::uint64_t epoch_ = 0;
};

/// A multicast set K = {u0, u1..uk}: one source and k >= 1 distinct
/// destinations, none equal to the source.
struct MulticastRequest {
  NodeId source = 0;
  std::vector<NodeId> destinations;

  /// Raw identity: same source and same destination list in the same
  /// order (permutations of one multicast set compare unequal).
  friend bool operator==(const MulticastRequest&, const MulticastRequest&) = default;

  /// Throws std::invalid_argument on duplicate destinations, destination ==
  /// source, or empty destination list.
  void validate(std::uint32_t num_nodes) const;

  /// Sanitised copy for routing: duplicate destinations are removed (first
  /// occurrence kept, order preserved), so sloppy callers cannot build
  /// degenerate double-delivery worms.  Throws std::invalid_argument with a
  /// precise message when the source is in the destination set, a node id
  /// is out of range, or the destination list is empty.  Every Router
  /// normalises requests on entry; validate() stays as the strict check.
  ///
  /// Requests that are already clean (the overwhelmingly common case) take
  /// an allocation-free scan and are returned as a plain copy; the dedup
  /// rebuild only runs when a duplicate was actually found.
  [[nodiscard]] MulticastRequest normalized(std::uint32_t num_nodes) const;

  /// Allocation-free normalization check: throws exactly the errors
  /// normalized() throws (out-of-range source/destination, source in the
  /// destination set, empty list -- same messages, same precedence), and
  /// otherwise returns true iff the destination list carries no duplicates,
  /// i.e. normalized() would return an identical request.
  [[nodiscard]] bool is_normalized(std::uint32_t num_nodes, RequestScratch& scratch) const;

  /// Zero-copy normalization for hot paths: returns `*this` unchanged when
  /// already normalized (no allocation, no copy), otherwise writes the
  /// deduped copy into `storage` (reusing its capacity) and returns a
  /// reference to it.  Throws like normalized().
  [[nodiscard]] const MulticastRequest& normalize_into(std::uint32_t num_nodes,
                                                       RequestScratch& scratch,
                                                       MulticastRequest& storage) const;
};

/// A single multicast path (the MP / star-branch shape): a walk from the
/// source; destinations are absorbed as the message passes them.
struct PathRoute {
  /// Visited nodes; nodes.front() is the source.
  std::vector<NodeId> nodes;
  /// Indices into `nodes` (ascending) at which a destination is delivered.
  std::vector<std::uint32_t> delivery_hops;
  /// Channel class for networks with multiple channels per link: the
  /// subnetwork this path is routed in (0 = high / first copy, 1 = low /
  /// second copy).  Ignored on single-channel networks.
  std::uint8_t channel_class = 0;

  [[nodiscard]] std::uint32_t hops() const {
    return nodes.empty() ? 0 : static_cast<std::uint32_t>(nodes.size() - 1);
  }

  friend bool operator==(const PathRoute&, const PathRoute&) = default;
};

/// A multicast tree (the MT / ST shape).  Stored as a link arena: link i
/// carries the message from `from` to `to`; `parent` is the index of the
/// upstream link (-1 for links leaving the source).
struct TreeRoute {
  struct Link {
    NodeId from = topo::kInvalidNode;
    NodeId to = topo::kInvalidNode;
    std::int32_t parent = -1;
    std::uint32_t depth = 1;  // hops from the source (root links have depth 1)

    friend bool operator==(const Link&, const Link&) = default;
  };

  NodeId source = topo::kInvalidNode;
  std::vector<Link> links;
  /// Indices of links whose `to` node is a destination (a destination at
  /// the source itself never occurs: requests exclude it).
  std::vector<std::uint32_t> delivery_links;
  /// Channel class per the owning subnetwork (double-channel X-first trees
  /// use classes 0..3, one per quadrant subnetwork).
  std::uint8_t channel_class = 0;

  /// Append a link and return its index.
  std::uint32_t add_link(NodeId from, NodeId to, std::int32_t parent);

  friend bool operator==(const TreeRoute&, const TreeRoute&) = default;
};

/// The complete route of one multicast: a set of paths (multicast star /
/// path models) and/or trees (tree models).  Every destination is delivered
/// exactly once across all components.
struct MulticastRoute {
  NodeId source = topo::kInvalidNode;
  std::vector<PathRoute> paths;
  std::vector<TreeRoute> trees;

  /// Total traffic: one unit per message traversal of a channel.
  [[nodiscard]] std::uint64_t traffic() const;
  /// Traffic beyond the k-unit lower bound for k destinations.
  [[nodiscard]] std::int64_t additional_traffic(std::uint32_t k) const {
    return static_cast<std::int64_t>(traffic()) - static_cast<std::int64_t>(k);
  }
  /// Maximum hop count from the source to any delivered destination.
  [[nodiscard]] std::uint32_t max_delivery_hops() const;
  /// Number of deliveries across all components.
  [[nodiscard]] std::uint32_t num_deliveries() const;

  friend bool operator==(const MulticastRoute&, const MulticastRoute&) = default;
};

/// Structural validation used by tests and the simulator: consecutive path
/// nodes adjacent, tree links well-formed, and every requested destination
/// delivered exactly once.  Throws std::logic_error on violation.
void verify_route(const topo::Topology& topology, const MulticastRequest& request,
                  const MulticastRoute& route);

}  // namespace mcnet::mcast
