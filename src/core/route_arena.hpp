// Arena-backed structure-of-arrays batch of multicast routes: the batch
// counterpart of MulticastRoute for the Router::route_many API.
//
// One RouteBatch holds the routes of a whole request batch in four shared
// arenas (path nodes, path delivery hops, tree links, tree delivery links)
// plus per-path / per-tree / per-request offset spans into them.  Appending
// a route copies its data into the arenas; once the arenas have warmed up
// to the batch working-set size, appends allocate nothing.  route_at(i)
// converts element i back to a MulticastRoute, and equals exactly what the
// scalar API would have produced for requests[i] (the batch/scalar
// equivalence property the RouteMany tests pin).
//
// A RouteBatch is a value type: movable, copyable, no internal pointers
// (spans are index-based), so it can cross thread boundaries freely.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/multicast.hpp"

namespace mcnet::mcast {

class RouteBatch {
 public:
  /// One path worm of one batch element: spans into the node / delivery-hop
  /// arenas plus the channel class the worm is pinned to.
  struct PathSpan {
    std::uint32_t nodes_begin = 0;
    std::uint32_t nodes_count = 0;
    std::uint32_t deliveries_begin = 0;
    std::uint32_t deliveries_count = 0;
    std::uint8_t channel_class = 0;
  };

  /// One tree of one batch element: spans into the link / delivery-link
  /// arenas.  Link parent indices stay element-local (as in TreeRoute).
  struct TreeSpan {
    NodeId source = topo::kInvalidNode;
    std::uint32_t links_begin = 0;
    std::uint32_t links_count = 0;
    std::uint32_t deliveries_begin = 0;
    std::uint32_t deliveries_count = 0;
    std::uint8_t channel_class = 0;
  };

  /// One batch element: spans into the path / tree descriptor arrays.
  struct RequestSpan {
    NodeId source = topo::kInvalidNode;
    std::uint32_t paths_begin = 0;
    std::uint32_t paths_count = 0;
    std::uint32_t trees_begin = 0;
    std::uint32_t trees_count = 0;
  };

  /// Number of routes (batch elements) held.
  [[nodiscard]] std::size_t size() const { return requests_.size(); }
  [[nodiscard]] bool empty() const { return requests_.empty(); }

  /// Drop all elements but keep arena capacity (batch-loop reuse).
  void clear();

  /// Pre-size for `requests` elements; the arena hints are optional (path
  /// nodes / tree links expected across the whole batch).
  void reserve(std::size_t requests, std::size_t path_nodes_hint = 0,
               std::size_t tree_links_hint = 0);

  /// Copy one scalar route into the arenas; returns its element index.
  std::size_t append(const MulticastRoute& route);

  /// Convert element `index` back to the pointer-heavy scalar form.
  [[nodiscard]] MulticastRoute route_at(std::size_t index) const;

  // -- Per-element metrics (no conversion needed) ---------------------------
  [[nodiscard]] NodeId source_at(std::size_t index) const {
    return requests_[index].source;
  }
  /// Channel traversals of element `index` (MulticastRoute::traffic()).
  [[nodiscard]] std::uint64_t traffic_at(std::size_t index) const;
  /// Deliveries of element `index` (MulticastRoute::num_deliveries()).
  [[nodiscard]] std::uint32_t deliveries_at(std::size_t index) const;
  /// Max hops to any delivery of element `index`.
  [[nodiscard]] std::uint32_t max_delivery_hops_at(std::size_t index) const;
  /// Sum of traffic_at over all elements.
  [[nodiscard]] std::uint64_t total_traffic() const;

  // -- Raw span access (bench / spec-conversion hot paths) ------------------
  [[nodiscard]] std::span<const PathSpan> paths_of(std::size_t index) const {
    const RequestSpan& r = requests_[index];
    return {paths_.data() + r.paths_begin, r.paths_count};
  }
  [[nodiscard]] std::span<const TreeSpan> trees_of(std::size_t index) const {
    const RequestSpan& r = requests_[index];
    return {trees_.data() + r.trees_begin, r.trees_count};
  }
  [[nodiscard]] std::span<const NodeId> path_nodes(const PathSpan& p) const {
    return {path_nodes_.data() + p.nodes_begin, p.nodes_count};
  }
  [[nodiscard]] std::span<const std::uint32_t> path_deliveries(const PathSpan& p) const {
    return {path_deliveries_.data() + p.deliveries_begin, p.deliveries_count};
  }
  [[nodiscard]] std::span<const TreeRoute::Link> tree_links(const TreeSpan& t) const {
    return {tree_links_.data() + t.links_begin, t.links_count};
  }
  [[nodiscard]] std::span<const std::uint32_t> tree_deliveries(const TreeSpan& t) const {
    return {tree_deliveries_.data() + t.deliveries_begin, t.deliveries_count};
  }

  /// Arena occupancy, for capacity planning and tests.
  [[nodiscard]] std::size_t arena_path_nodes() const { return path_nodes_.size(); }
  [[nodiscard]] std::size_t arena_tree_links() const { return tree_links_.size(); }

 private:
  std::vector<RequestSpan> requests_;
  std::vector<PathSpan> paths_;
  std::vector<TreeSpan> trees_;
  // Shared arenas.
  std::vector<NodeId> path_nodes_;
  std::vector<std::uint32_t> path_deliveries_;
  std::vector<TreeRoute::Link> tree_links_;
  std::vector<std::uint32_t> tree_deliveries_;
};

}  // namespace mcnet::mcast
