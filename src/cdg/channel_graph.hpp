// Channel dependency graphs (CDG) and the Dally-Seitz acyclicity condition
// (Section 2.3.4): a routing algorithm is deadlock-free iff its CDG has no
// cycle.  The nodes of the CDG are the directed channels of the network; an
// edge (c_i, c_j) exists when the routing function can forward a message
// arriving on c_i out through c_j.
//
// Beyond the plain graph, every dependency edge can carry *provenance
// tags*: opaque identifiers of the message instances whose routes induced
// the edge.  The static multicast analyzer (src/analysis/) uses tags to
// turn an abstract CDG cycle into a concrete deadlock witness -- the
// minimal set of concurrent multicasts whose dependencies close the cycle.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "topology/topology.hpp"

namespace mcnet::cdg {

using topo::ChannelId;
using topo::NodeId;

/// A unicast routing function: given the current node and the destination,
/// return the next-hop node (kInvalidNode when current == destination or
/// the pair is unroutable).  Deterministic routing only, as in the paper's
/// deadlock analyses.
using RoutingFunction = std::function<NodeId(NodeId current, NodeId destination)>;

/// Opaque provenance tag attached to a dependency edge (the analysis layer
/// uses the index of the multicast instance that created the edge).
using EdgeTag = std::uint32_t;
inline constexpr EdgeTag kNoEdgeTag = static_cast<EdgeTag>(-1);

/// Directed graph over channel ids with optional per-edge provenance.
class ChannelGraph {
 public:
  /// At most this many distinct tags are retained per edge; later
  /// contributors of an already-saturated edge are dropped (the edge itself
  /// is always kept).
  static constexpr std::size_t kMaxTagsPerEdge = 4;

  explicit ChannelGraph(std::uint32_t num_channels)
      : succ_(num_channels), tags_(num_channels) {}

  void add_dependency(ChannelId from, ChannelId to) {
    add_dependency(from, to, kNoEdgeTag);
  }
  /// Record the dependency and attach `tag` to it (kNoEdgeTag attaches
  /// nothing).  Duplicate (from, to) pairs are merged; their tag sets are
  /// unioned up to kMaxTagsPerEdge distinct tags.
  void add_dependency(ChannelId from, ChannelId to, EdgeTag tag);
  /// add_dependency(from, to, tag) for every `to` of `targets`, which must
  /// be sorted ascending without repeats, in one merge with from's
  /// successor row.
  void add_dependencies(ChannelId from, std::span<const ChannelId> targets, EdgeTag tag);

  [[nodiscard]] std::uint32_t num_channels() const {
    return static_cast<std::uint32_t>(succ_.size());
  }
  /// Successor channel ids of `c`, sorted ascending.
  [[nodiscard]] const std::vector<ChannelId>& successors(ChannelId c) const {
    return succ_[c];
  }
  [[nodiscard]] std::size_t num_dependencies() const;

  /// Distinct provenance tags recorded for edge (from, to); empty when the
  /// edge does not exist or carries no tags.
  [[nodiscard]] std::span<const EdgeTag> edge_tags(ChannelId from, ChannelId to) const;

  /// True iff the graph contains no directed cycle.
  [[nodiscard]] bool acyclic() const;

  /// A directed cycle (sequence of channel ids, first repeated at the end
  /// conceptually but not stored), or nullopt if acyclic.
  [[nodiscard]] std::optional<std::vector<ChannelId>> find_cycle() const;

  /// find_cycle() restricted to edges accepted by `edge_ok`; edges for
  /// which the predicate returns false are treated as absent.
  [[nodiscard]] std::optional<std::vector<ChannelId>> find_cycle_if(
      const std::function<bool(ChannelId from, ChannelId to)>& edge_ok) const;

 private:
  // An edge's tags, inline: inserting an edge allocates nothing of its own.
  struct TagSet {
    std::array<EdgeTag, kMaxTagsPerEdge> tags{};
    std::uint8_t count = 0;

    /// Attach `tag` unless it is kNoEdgeTag, already present, or the set
    /// is full.
    void add(EdgeTag tag) {
      if (tag == kNoEdgeTag || count >= kMaxTagsPerEdge) return;
      for (std::uint8_t i = 0; i < count; ++i) {
        if (tags[i] == tag) return;
      }
      tags[count++] = tag;
    }
  };

  // Edges known to hold a full tag set, as from << 32 | to keys in an
  // open-addressing table (power-of-two size, at most half full): a bulk
  // add passes over them with one probe instead of a search of the row.
  [[nodiscard]] bool known_full(std::uint64_t key) const;
  void note_full(std::uint64_t key);

  std::vector<std::vector<ChannelId>> succ_;  // sorted adjacency
  std::vector<std::vector<TagSet>> tags_;     // parallel to succ_
  std::vector<std::uint64_t> full_;           // kEmptyKey marks a free slot
  std::size_t num_full_ = 0;
};

/// Build the CDG of `route` on `topology`: for every (source, destination)
/// pair, walk the routed path and record each consecutive channel pair as a
/// dependency.  O(N^2 * diameter); intended for the small verification
/// networks used in tests and the cdg_explorer example.
[[nodiscard]] ChannelGraph build_unicast_cdg(const topo::Topology& topology,
                                             const RoutingFunction& route);

}  // namespace mcnet::cdg
