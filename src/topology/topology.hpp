// Topology abstractions for multicomputer interconnection networks.
//
// A topology is modelled as the host graph G(V, E) of the paper: nodes are
// processors, directed channels are the unidirectional halves of the
// communication links.  Every concrete topology provides node/neighbour
// enumeration, shortest-path distance, and a dense indexing of its directed
// channels so that simulators and channel-dependency analyses can address
// channel state in flat arrays.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mcnet::topo {

/// Dense node identifier in [0, num_nodes()).
using NodeId = std::uint32_t;

/// Dense directed-channel identifier in [0, num_channels()).
using ChannelId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
/// Sentinel for "no channel".
inline constexpr ChannelId kInvalidChannel = static_cast<ChannelId>(-1);

/// Largest node count a topology may have.  Constructors reject larger
/// shapes before allocating anything.
inline constexpr std::uint32_t kMaxNodes = 1u << 22;

/// A directed channel endpoint pair.
struct ChannelEnds {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  friend bool operator==(const ChannelEnds&, const ChannelEnds&) = default;
};

/// Abstract interconnection topology.
///
/// Implementations must be immutable after construction so that const
/// references can be shared freely across threads (e.g. by parallel
/// experiment sweeps).
class Topology {
 public:
  virtual ~Topology() = default;

  /// Human-readable name, e.g. "mesh2d(8x8)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of nodes |V|.
  [[nodiscard]] virtual std::uint32_t num_nodes() const = 0;

  /// Number of directed channels (2 per undirected link).
  [[nodiscard]] virtual std::uint32_t num_channels() const = 0;

  /// Neighbours of `u` in a deterministic, implementation-defined order.
  [[nodiscard]] virtual std::span<const NodeId> neighbors(NodeId u) const = 0;

  /// Length of a shortest path between `u` and `v`.
  [[nodiscard]] virtual std::uint32_t distance(NodeId u, NodeId v) const = 0;

  /// Dense id of the directed channel u -> v; kInvalidChannel if (u, v) is
  /// not an edge.
  [[nodiscard]] virtual ChannelId channel(NodeId u, NodeId v) const = 0;

  /// Endpoints of directed channel `c`.
  [[nodiscard]] virtual ChannelEnds channel_ends(ChannelId c) const = 0;

  /// True if u and v are joined by a link.
  [[nodiscard]] bool adjacent(NodeId u, NodeId v) const {
    return channel(u, v) != kInvalidChannel;
  }

  /// Maximum node degree.
  [[nodiscard]] virtual std::uint32_t max_degree() const = 0;

  /// Network diameter (maximum pairwise distance).
  [[nodiscard]] virtual std::uint32_t diameter() const = 0;
};

/// Shared implementation: topologies that precompute adjacency into flat
/// arrays.  Concrete classes fill `adjacency_` (CSR layout) and
/// `channel_table_` in their constructors via add_node()/add_edge().
class DenseTopology : public Topology {
 public:
  [[nodiscard]] std::uint32_t num_nodes() const final {
    return static_cast<std::uint32_t>(row_start_.size() - 1);
  }
  [[nodiscard]] std::uint32_t num_channels() const final {
    return static_cast<std::uint32_t>(channel_ends_.size());
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const final;
  [[nodiscard]] ChannelId channel(NodeId u, NodeId v) const final;
  [[nodiscard]] ChannelEnds channel_ends(ChannelId c) const final;
  [[nodiscard]] std::uint32_t max_degree() const final;

 protected:
  /// Build the CSR adjacency from an adjacency-list description.  Channel
  /// ids are assigned in (source node, neighbour order) order.
  void build(const std::vector<std::vector<NodeId>>& adj);

 private:
  std::vector<std::uint32_t> row_start_;  // CSR row offsets, size N+1
  std::vector<NodeId> adj_flat_;          // CSR column indices
  std::vector<ChannelId> channel_of_edge_;  // parallel to adj_flat_
  std::vector<ChannelEnds> channel_ends_;   // channel id -> endpoints
};

}  // namespace mcnet::topo
