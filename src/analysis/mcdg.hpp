// Multicast channel-dependency-graph analysis (the static half of Chapter
// 6): enumerate the channel dependencies each multicast algorithm induces
// over systematically enumerated (source, destination-set) instances,
// search the CDG for directed cycles, and turn a cycle into a concrete,
// shrunk deadlock witness -- the minimal set of concurrent multicasts whose
// dependencies close the cycle.
//
// Dependencies are taken over *virtual* channels (physical channel id x
// copy), so the double-channel schemes are analyzed over the channel sets
// their subnetworks actually own.  Tree-shaped routes contribute edges
// according to the scenario's TreeSemantics (see analysis/scenario.hpp):
// lock-step worms admit cross-branch waits, independent branches only
// consecutive-channel waits.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "cdg/channel_graph.hpp"
#include "core/multicast.hpp"

namespace mcnet::analysis {

/// Knobs shared by the deadlock and invariant analyses.
struct AnalysisConfig {
  /// Largest destination-set size enumerated per source.
  std::uint32_t max_set_size = 2;
  /// Instance budget; the enumeration is stride-sampled above it.
  std::size_t max_instances = 300000;
  /// Run counterexample shrinking on a found cycle.
  bool shrink = true;
};

/// Virtual channel: a physical channel and the copy it is pinned to.
struct VirtualChannel {
  topo::ChannelId channel = topo::kInvalidChannel;
  std::uint8_t copy = 0;
};

/// A concrete deadlock counterexample: a minimal set of concurrent
/// multicasts and the virtual-channel cycle their dependencies close.
struct DeadlockWitness {
  /// The concurrent multicast instances (after shrinking: typically two,
  /// with minimal destination sets).
  std::vector<mcast::MulticastRequest> instances;
  /// The dependency cycle, as virtual channels in order (edge i goes from
  /// cycle[i] to cycle[(i+1) % size]).
  std::vector<VirtualChannel> cycle;
  /// Which instance (index into `instances`) induces each cycle edge.
  std::vector<std::uint32_t> edge_instance;
  /// True when a hold/request state assignment was found in which each
  /// instance's held channels are mutually disjoint and every requested
  /// channel is held by the next instance around the cycle -- i.e. the
  /// cycle is a realizable circular wait, not just an over-approximation.
  bool realizable = false;

  [[nodiscard]] std::string format(const topo::Topology& topology) const;
};

/// Result of the deadlock-freedom analysis of one scenario.
struct DeadlockReport {
  std::size_t instances_analyzed = 0;
  std::size_t virtual_channels = 0;
  std::size_t dependencies = 0;
  /// Present iff the CDG admits a multi-instance dependency cycle.
  std::optional<DeadlockWitness> witness;

  [[nodiscard]] bool deadlock_free() const { return !witness.has_value(); }
};

/// Dense virtual-channel id: channel * copies + copy.
[[nodiscard]] inline topo::ChannelId virtual_channel_id(topo::ChannelId channel,
                                                        std::uint8_t copy,
                                                        std::uint8_t copies) {
  return channel * copies + copy;
}

/// A multi-instance dependency cycle found in a tagged CDG: the virtual
/// channels in order, plus one inducing instance tag per edge (edge i goes
/// vcs[i] -> vcs[(i+1) % size]; at least two distinct tags overall).
struct TaggedCycle {
  std::vector<topo::ChannelId> vcs;
  std::vector<cdg::EdgeTag> edge_instance;
};

/// Search a tagged CDG for a directed cycle attributable to at least two
/// distinct instances (a single message cannot circularly wait on itself).
/// Shared by the deterministic analyzer and the relation-based engine.
[[nodiscard]] std::optional<TaggedCycle> find_multi_instance_cycle(
    const cdg::ChannelGraph& graph);

/// Oracle of witness shrinking: does this set of concurrent instances still
/// deadlock?  subset_deadlocks for algorithms, relation_subset_deadlocks
/// for routing relations.
using DeadlockOracle = std::function<bool(const std::vector<mcast::MulticastRequest>&)>;

/// Seed of a witness: the instances a cycle found over `instances` blames,
/// instances[t] for each distinct tag t of `edge_instance` in tag order.
/// `edge_instance` is remapped in place to index the returned seed.
[[nodiscard]] std::vector<mcast::MulticastRequest> blamed_instances(
    const std::vector<mcast::MulticastRequest>& instances,
    std::vector<cdg::EdgeTag>& edge_instance);

/// Delta-debug a deadlocking instance set: drop whole instances while more
/// than two remain, then single destinations to a fixpoint, keeping every
/// reduction `deadlocks` still accepts.  The result is 1-minimal under both
/// reductions.  Shared by the deterministic analyzer and the relation
/// engine.
[[nodiscard]] std::vector<mcast::MulticastRequest> shrink_instances(
    std::vector<mcast::MulticastRequest> instances, const DeadlockOracle& deadlocks);

/// Does the CDG restricted to `instances` still witness a deadlock at the
/// given realizability level?  This is the delta-debugging oracle used by
/// witness shrinking; exposed so tests can assert shrunk witnesses are
/// 1-minimal.
[[nodiscard]] bool subset_deadlocks(const Scenario& scenario,
                                    const std::vector<mcast::MulticastRequest>& instances,
                                    bool require_realizable);

/// Append the dependency edges `route` induces under the scenario's
/// semantics to `graph`, tagging each edge with `tag`.  Exposed for tests.
void add_route_dependencies(const Scenario& scenario, const mcast::MulticastRoute& route,
                            cdg::ChannelGraph& graph, cdg::EdgeTag tag);

/// Build the full multicast CDG of `scenario` over `instances`.
[[nodiscard]] cdg::ChannelGraph build_multicast_cdg(
    const Scenario& scenario, const std::vector<mcast::MulticastRequest>& instances);

/// Enumerate instances, build the CDG, search for a multi-instance cycle
/// and (optionally) shrink it to a minimal witness.
[[nodiscard]] DeadlockReport analyze_deadlock(const Scenario& scenario,
                                              const AnalysisConfig& config = {});

}  // namespace mcnet::analysis
