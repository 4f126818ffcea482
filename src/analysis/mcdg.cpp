#include "analysis/mcdg.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "analysis/instances.hpp"

namespace mcnet::analysis {

namespace {

using cdg::ChannelGraph;
using cdg::EdgeTag;
using mcast::MulticastRequest;
using mcast::MulticastRoute;
using mcast::PathRoute;
using mcast::TreeRoute;
using topo::ChannelId;
using topo::NodeId;

std::uint8_t copy_for(const Scenario& s, std::uint8_t cls, NodeId from, NodeId to) {
  return s.copy_of ? s.copy_of(cls, from, to) : 0;
}

ChannelId vc_of_hop(const Scenario& s, std::uint8_t cls, NodeId from, NodeId to) {
  const ChannelId c = s.topology->channel(from, to);
  if (c == topo::kInvalidChannel) {
    throw std::logic_error("route uses a non-channel hop");
  }
  return virtual_channel_id(c, copy_for(s, cls, from, to), s.channel_copies);
}

// Virtual channel of every tree link, into `vcs`.
void tree_link_vcs(const Scenario& s, const TreeRoute& tree, std::vector<ChannelId>& vcs) {
  vcs.clear();
  for (const TreeRoute::Link& l : tree.links) {
    vcs.push_back(vc_of_hop(s, tree.channel_class, l.from, l.to));
  }
}

constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

// Small dynamic bitset over tree-link indices.
class LinkSet {
 public:
  explicit LinkSet(std::size_t bits) : words_(words_for(bits), 0) {}
  void set(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1u;
  }
  void merge(std::span<const std::uint64_t> row) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= row[w];
  }

 private:
  std::vector<std::uint64_t> words_;
};

// Acquisition-requirement closure of every link of a lock-step tree worm,
// as a flat bit matrix: row i marks the links that requesting link i
// requires to be acquired already -- its parent and every earlier sibling
// of the same fork (branches are created, and their first channels
// requested, in algorithm order), transitively.  Links are stored in
// creation order, so parents and earlier siblings always have smaller
// indices.
class LinkClosures {
 public:
  void build(const TreeRoute& tree) {
    const std::size_t n = tree.links.size();
    words_ = words_for(n);
    bits_.assign(n * words_, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t parent = tree.links[i].parent;
      if (parent >= 0) {
        const auto p = static_cast<std::size_t>(parent);
        for (std::size_t w = 0; w < words_; ++w) bits_[i * words_ + w] |= bits_[p * words_ + w];
        set(i, p);
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (tree.links[j].parent == parent) set(i, j);
      }
    }
  }
  [[nodiscard]] bool test(std::size_t i, std::size_t link) const {
    return (bits_[i * words_ + link / 64] >> (link % 64)) & 1u;
  }
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t i) const {
    return {bits_.data() + i * words_, words_};
  }

 private:
  void set(std::size_t i, std::size_t link) {
    bits_[i * words_ + link / 64] |= std::uint64_t{1} << (link % 64);
  }

  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

void add_path_dependencies(const Scenario& s, const PathRoute& path, ChannelGraph& g,
                           EdgeTag tag) {
  ChannelId prev = topo::kInvalidChannel;
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const ChannelId vc = vc_of_hop(s, path.channel_class, path.nodes[i], path.nodes[i + 1]);
    if (prev != topo::kInvalidChannel && prev != vc) g.add_dependency(prev, vc, tag);
    prev = vc;
  }
}

void add_tree_dependencies(const Scenario& s, const TreeRoute& tree, ChannelGraph& g,
                           EdgeTag tag) {
  thread_local std::vector<ChannelId> vcs;
  thread_local LinkClosures closure;
  thread_local std::vector<std::pair<ChannelId, std::size_t>> by_channel;  // (vc, link)
  thread_local std::vector<ChannelId> targets;
  tree_link_vcs(s, tree, vcs);
  if (s.tree_semantics == TreeSemantics::kIndependentBranches) {
    for (std::size_t i = 0; i < tree.links.size(); ++i) {
      const std::int32_t parent = tree.links[i].parent;
      if (parent >= 0 && vcs[static_cast<std::size_t>(parent)] != vcs[i]) {
        g.add_dependency(vcs[static_cast<std::size_t>(parent)], vcs[i], tag);
      }
    }
    return;
  }
  // Lock-step: a blocked branch stalls the whole worm, so any held channel
  // h can wait on any channel r whose acquisition does not require h --
  // i.e. every ordered pair (h, r) with r outside h's requirement closure.
  // Each held channel's targets go in as one sorted list.
  closure.build(tree);
  by_channel.clear();
  for (std::size_t l = 0; l < vcs.size(); ++l) by_channel.emplace_back(vcs[l], l);
  std::sort(by_channel.begin(), by_channel.end());
  for (std::size_t h = 0; h < vcs.size(); ++h) {
    targets.clear();
    for (const auto& [vc, r] : by_channel) {
      if (vc == vcs[h] || closure.test(h, r) || (!targets.empty() && targets.back() == vc)) {
        continue;
      }
      targets.push_back(vc);
    }
    g.add_dependencies(vcs[h], targets, tag);
  }
}

// --- multi-instance cycle search -------------------------------------------

struct FoundCycle {
  std::vector<ChannelId> vcs;                        // cycle nodes in order
  std::vector<std::span<const EdgeTag>> edge_tags;  // tags of edge i: vcs[i] -> vcs[i+1]
};

std::vector<std::span<const EdgeTag>> collect_edge_tags(const ChannelGraph& g,
                                                        const std::vector<ChannelId>& cycle) {
  std::vector<std::span<const EdgeTag>> tags;
  tags.reserve(cycle.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    tags.push_back(g.edge_tags(cycle[i], cycle[(i + 1) % cycle.size()]));
  }
  return tags;
}

// A cycle is a deadlock candidate only if its edges can be attributed to at
// least two distinct instances: a single message cannot circularly wait on
// itself, and two concurrent copies of the *same* instance cannot either
// (their acquisition closures both contain the first channel out of the
// shared source, so their hold sets can never coexist).
bool multi_instance(const std::vector<std::span<const EdgeTag>>& edge_tags) {
  EdgeTag first = cdg::kNoEdgeTag;
  for (const auto& tags : edge_tags) {
    if (tags.empty()) return false;  // unattributable edge
    for (const EdgeTag t : tags) {
      if (first == cdg::kNoEdgeTag) {
        first = t;
      } else if (t != first) {
        return true;
      }
    }
  }
  return false;
}

std::optional<FoundCycle> search_multi_instance_cycle(const ChannelGraph& g) {
  // Every round that meets a single-instance cycle retires that cycle's one
  // tag.  Each of its edges kept a live tag, so the tag is new, and the
  // search ends after at most (distinct tags + 1) rounds.
  std::vector<EdgeTag> exhausted;  // sorted
  const auto usable = [&](ChannelId from, ChannelId to) {
    if (exhausted.empty()) return true;
    const auto tags = g.edge_tags(from, to);
    return std::any_of(tags.begin(), tags.end(), [&](EdgeTag t) {
      return !std::binary_search(exhausted.begin(), exhausted.end(), t);
    });
  };
  for (;;) {
    const auto cycle = g.find_cycle_if(usable);
    if (!cycle) return std::nullopt;
    FoundCycle found{*cycle, collect_edge_tags(g, *cycle)};
    if (multi_instance(found.edge_tags)) return found;
    // Single-instance (or unattributable) cycle: retire its sole tag and
    // search for a structurally different one.
    EdgeTag sole = cdg::kNoEdgeTag;
    for (const auto& tags : found.edge_tags) {
      if (!tags.empty()) sole = tags.front();
    }
    if (sole == cdg::kNoEdgeTag) return std::nullopt;
    exhausted.insert(std::upper_bound(exhausted.begin(), exhausted.end(), sole), sole);
  }
}

// Assign one instance to each cycle edge, preferring to alternate with the
// previous edge's instance so the assignment stays attributable to the
// smallest concurrent set while still using >= 2 distinct instances.
std::vector<EdgeTag> assign_edges(const FoundCycle& cycle) {
  std::vector<EdgeTag> assignment(cycle.edge_tags.size(), cdg::kNoEdgeTag);
  for (std::size_t i = 0; i < cycle.edge_tags.size(); ++i) {
    const auto& tags = cycle.edge_tags[i];
    assignment[i] = tags.front();
    if (i > 0) {
      for (const EdgeTag t : tags) {
        if (t != assignment[i - 1]) {
          assignment[i] = t;
          break;
        }
      }
    }
  }
  // Ensure at least two distinct instances overall.
  const bool uniform = std::all_of(assignment.begin(), assignment.end(),
                                   [&](EdgeTag t) { return t == assignment.front(); });
  if (uniform) {
    for (std::size_t i = 0; i < cycle.edge_tags.size(); ++i) {
      for (const EdgeTag t : cycle.edge_tags[i]) {
        if (t != assignment.front()) {
          assignment[i] = t;
          return assignment;
        }
      }
    }
  }
  return assignment;
}

// --- realizability ---------------------------------------------------------

// Per-instance link table of a route's trees: vc -> (tree, link) lookup
// plus requirement closures, for reconstructing concrete hold states.
struct InstanceLinks {
  std::vector<std::vector<ChannelId>> vcs;  // per tree
  std::vector<LinkClosures> closures;       // per tree

  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>> find(ChannelId vc) const {
    for (std::size_t t = 0; t < vcs.size(); ++t) {
      for (std::size_t l = 0; l < vcs[t].size(); ++l) {
        if (vcs[t][l] == vc) return std::make_pair(t, l);
      }
    }
    return std::nullopt;
  }
};

// The links of each instance a deadlock search tries, routed on first use
// and kept for the rest of the search.
class InstanceLinksCache {
 public:
  InstanceLinksCache(const Scenario& s, const std::vector<MulticastRequest>& instances)
      : s_(&s), instances_(&instances) {}

  /// Null when the instance cannot be routed.
  const InstanceLinks* get(std::uint32_t instance) {
    const auto [it, inserted] = links_.try_emplace(instance);
    std::optional<InstanceLinks>& links = it->second;
    if (inserted) links = route_links((*instances_)[instance]);
    return links.has_value() ? &*links : nullptr;
  }

 private:
  [[nodiscard]] std::optional<InstanceLinks> route_links(
      const MulticastRequest& request) const {
    InstanceLinks il;
    try {
      const MulticastRoute route = s_->route(request);
      for (const TreeRoute& tree : route.trees) {
        tree_link_vcs(*s_, tree, il.vcs.emplace_back());
        il.closures.emplace_back().build(tree);
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
    return il;
  }

  const Scenario* s_;
  const std::vector<MulticastRequest>* instances_;
  std::unordered_map<std::uint32_t, std::optional<InstanceLinks>> links_;
};

// Check that the assigned cycle is a realizable circular wait: each
// participating instance admits a hold state (closed under its acquisition
// requirements) containing its held cycle channels and the prerequisites of
// its requested ones but not the requests themselves, and the hold states
// of distinct instances are channel-disjoint.
bool check_realizable(InstanceLinksCache& links, std::span<const ChannelId> cycle,
                      std::span<const std::uint32_t> edge_instance) {
  const std::size_t k = cycle.size();
  // Contract runs of consecutive edges with the same instance into
  // message-level (held, requested) pairs.
  struct Claim {
    std::uint32_t instance = 0;
    std::vector<ChannelId> held;
    std::vector<ChannelId> requested;
  };
  std::vector<Claim> claims;
  const auto claim_for = [&claims](std::uint32_t m) -> Claim& {
    for (Claim& c : claims) {
      if (c.instance == m) return c;
    }
    claims.push_back({m, {}, {}});
    return claims.back();
  };
  std::size_t segments = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t m = edge_instance[i];
    claim_for(m).held.push_back(cycle[i]);
    if (edge_instance[(i + 1) % k] != m) {
      claim_for(m).requested.push_back(cycle[(i + 1) % k]);
      ++segments;
    }
  }
  if (segments < 2 || claims.size() < 2) return false;

  std::vector<std::vector<ChannelId>> hold_sets;
  for (const Claim& claim : claims) {
    if (claim.requested.empty()) return false;  // holds but never waits: not a cycle
    const InstanceLinks* il = links.get(claim.instance);
    if (il == nullptr) return false;
    // Held links: the channel itself plus everything its acquisition needed.
    std::vector<LinkSet> held_per_tree;
    held_per_tree.reserve(il->vcs.size());
    for (const auto& tree_vcs : il->vcs) held_per_tree.emplace_back(tree_vcs.size());
    const auto absorb = [&](ChannelId vc, bool include_self) -> bool {
      const auto where = il->find(vc);
      if (!where) return false;
      const auto [t, l] = *where;
      held_per_tree[t].merge(il->closures[t].row(l));
      if (include_self) held_per_tree[t].set(l);
      return true;
    };
    for (const ChannelId vc : claim.held) {
      if (!absorb(vc, /*include_self=*/true)) return false;
    }
    for (const ChannelId vc : claim.requested) {
      if (!absorb(vc, /*include_self=*/false)) return false;
    }
    // A requested channel must not already be forced into the hold state.
    for (const ChannelId vc : claim.requested) {
      const auto where = il->find(vc);
      if (!where || held_per_tree[where->first].test(where->second)) return false;
    }
    std::vector<ChannelId> holds;
    for (std::size_t t = 0; t < il->vcs.size(); ++t) {
      for (std::size_t l = 0; l < il->vcs[t].size(); ++l) {
        if (held_per_tree[t].test(l)) holds.push_back(il->vcs[t][l]);
      }
    }
    std::sort(holds.begin(), holds.end());
    hold_sets.push_back(std::move(holds));
  }
  // Hold states of distinct messages must be channel-disjoint.
  for (std::size_t a = 0; a < hold_sets.size(); ++a) {
    for (std::size_t b = a + 1; b < hold_sets.size(); ++b) {
      std::vector<ChannelId> common;
      std::set_intersection(hold_sets[a].begin(), hold_sets[a].end(), hold_sets[b].begin(),
                            hold_sets[b].end(), std::back_inserter(common));
      if (!common.empty()) return false;
    }
  }
  return true;
}

// --- deadlock search -------------------------------------------------------

struct DeadlockCandidate {
  std::vector<ChannelId> vcs;       // cycle, in order
  std::vector<EdgeTag> assignment;  // instance inducing each edge
  bool realizable = false;
};

// Realizable deadlocks are searched for first among 2-cycles (the shape the
// paper's double-multicast counterexamples take): for every mutually
// dependent channel pair, try all cross-instance tag assignments until one
// passes the hold-state disjointness check.  Falling back to the general
// multi-instance cycle search keeps the analysis sound (any cycle is still
// reported) but such witnesses stay marked over-approximate.
std::optional<DeadlockCandidate> find_deadlock(const Scenario& s,
                                               const std::vector<MulticastRequest>& instances,
                                               const ChannelGraph& g,
                                               bool require_realizable) {
  InstanceLinksCache links(s, instances);
  for (ChannelId c = 0; c < g.num_channels(); ++c) {
    for (const ChannelId d : g.successors(c)) {
      if (d <= c) continue;
      const auto back = g.edge_tags(d, c);
      if (back.empty()) continue;
      const auto fwd = g.edge_tags(c, d);
      for (const EdgeTag ta : fwd) {
        for (const EdgeTag tb : back) {
          if (ta == tb) continue;
          const std::array<ChannelId, 2> cycle{c, d};
          const std::array<std::uint32_t, 2> assignment{ta, tb};
          if (check_realizable(links, cycle, assignment)) {
            return DeadlockCandidate{{c, d}, {ta, tb}, true};
          }
        }
      }
    }
  }
  const auto found = search_multi_instance_cycle(g);
  if (!found) return std::nullopt;
  DeadlockCandidate cand;
  cand.vcs = found->vcs;
  cand.assignment = assign_edges(*found);
  cand.realizable = check_realizable(links, cand.vcs, cand.assignment);
  if (require_realizable && !cand.realizable) return std::nullopt;
  return cand;
}

// True when two routes induce the same dependencies: the same path nodes
// and tree links in the same channel classes.  Delivery positions do not
// enter the dependencies.
bool same_dependencies(const MulticastRoute& a, const MulticastRoute& b) {
  return std::equal(a.paths.begin(), a.paths.end(), b.paths.begin(), b.paths.end(),
                    [](const PathRoute& x, const PathRoute& y) {
                      return x.channel_class == y.channel_class && x.nodes == y.nodes;
                    }) &&
         std::equal(a.trees.begin(), a.trees.end(), b.trees.begin(), b.trees.end(),
                    [](const TreeRoute& x, const TreeRoute& y) {
                      return x.channel_class == y.channel_class && x.links == y.links;
                    });
}

ChannelGraph build_cdg_over(const Scenario& s, const std::vector<MulticastRequest>& instances) {
  ChannelGraph g(s.topology->num_channels() * s.channel_copies);
  // The last route added and how many instances in a row added it.  Every
  // instance brings a new tag, so once the same route has been added
  // kMaxTagsPerEdge times each of its edges holds a full tag set, and adding
  // it again cannot change the graph.
  MulticastRoute last;
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    MulticastRoute route;
    try {
      route = s.route(instances[i]);
    } catch (const std::exception&) {
      continue;  // unroutable instances are reported by the invariant pass
    }
    if (repeats > 0 && same_dependencies(route, last)) {
      if (repeats == ChannelGraph::kMaxTagsPerEdge) continue;
      ++repeats;
    } else {
      repeats = 1;
    }
    add_route_dependencies(s, route, g, static_cast<EdgeTag>(i));
    last = std::move(route);
  }
  return g;
}

DeadlockWitness make_witness(const Scenario& s, std::vector<MulticastRequest> instances,
                             const DeadlockCandidate& cand) {
  DeadlockWitness witness;
  witness.instances = std::move(instances);
  witness.cycle.reserve(cand.vcs.size());
  for (const ChannelId vc : cand.vcs) {
    witness.cycle.push_back(
        {vc / s.channel_copies, static_cast<std::uint8_t>(vc % s.channel_copies)});
  }
  witness.edge_instance.assign(cand.assignment.begin(), cand.assignment.end());
  witness.realizable = cand.realizable;
  return witness;
}

// Witness over an already shrunk instance set: re-derive its cycle.
DeadlockWitness shrunk_witness(const Scenario& s, std::vector<MulticastRequest> working,
                               bool require_realizable) {
  const auto cand = find_deadlock(s, working, build_cdg_over(s, working), require_realizable);
  if (!cand) {
    // Cannot happen (shrinking only keeps deadlocking subsets); stay safe.
    DeadlockWitness witness;
    witness.instances = std::move(working);
    return witness;
  }
  return make_witness(s, std::move(working), *cand);
}

}  // namespace

std::optional<TaggedCycle> find_multi_instance_cycle(const ChannelGraph& graph) {
  const auto found = search_multi_instance_cycle(graph);
  if (!found) return std::nullopt;
  return TaggedCycle{found->vcs, assign_edges(*found)};
}

std::vector<MulticastRequest> blamed_instances(const std::vector<MulticastRequest>& instances,
                                               std::vector<EdgeTag>& edge_instance) {
  std::vector<EdgeTag> distinct = edge_instance;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<MulticastRequest> seed;
  seed.reserve(distinct.size());
  for (const EdgeTag t : distinct) seed.push_back(instances[t]);
  for (EdgeTag& t : edge_instance) {
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), t);
    t = static_cast<EdgeTag>(it - distinct.begin());
  }
  return seed;
}

std::vector<MulticastRequest> shrink_instances(std::vector<MulticastRequest> working,
                                               const DeadlockOracle& deadlocks) {
  // Phase 1: drop whole instances while the reduced set still deadlocks.
  for (std::size_t i = 0; i < working.size() && working.size() > 2;) {
    std::vector<MulticastRequest> trial = working;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    if (deadlocks(trial)) {
      working = std::move(trial);
    } else {
      ++i;
    }
  }
  // Phase 2: delta-debug destination sets, one destination at a time, to a
  // fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < working.size(); ++i) {
      for (std::size_t d = 0; d < working[i].destinations.size();) {
        if (working[i].destinations.size() <= 1) break;
        std::vector<MulticastRequest> trial = working;
        trial[i].destinations.erase(trial[i].destinations.begin() +
                                    static_cast<std::ptrdiff_t>(d));
        if (deadlocks(trial)) {
          working = std::move(trial);
          changed = true;
        } else {
          ++d;
        }
      }
    }
  }
  return working;
}

bool subset_deadlocks(const Scenario& scenario, const std::vector<MulticastRequest>& instances,
                      bool require_realizable) {
  return find_deadlock(scenario, instances, build_cdg_over(scenario, instances),
                       require_realizable)
      .has_value();
}

void add_route_dependencies(const Scenario& scenario, const MulticastRoute& route,
                            ChannelGraph& graph, EdgeTag tag) {
  for (const PathRoute& path : route.paths) {
    add_path_dependencies(scenario, path, graph, tag);
  }
  for (const TreeRoute& tree : route.trees) {
    add_tree_dependencies(scenario, tree, graph, tag);
  }
}

ChannelGraph build_multicast_cdg(const Scenario& scenario,
                                 const std::vector<MulticastRequest>& instances) {
  return build_cdg_over(scenario, instances);
}

DeadlockReport analyze_deadlock(const Scenario& scenario, const AnalysisConfig& config) {
  const std::vector<MulticastRequest> instances =
      enumerate_instances(*scenario.topology, config.max_set_size, config.max_instances);
  const ChannelGraph g = build_cdg_over(scenario, instances);

  DeadlockReport report;
  report.instances_analyzed = instances.size();
  report.virtual_channels = g.num_channels();
  report.dependencies = g.num_dependencies();

  const auto cand = find_deadlock(scenario, instances, g, /*require_realizable=*/false);
  if (!cand) return report;

  // Seed the witness with the instances the assignment blames, then shrink.
  DeadlockCandidate remapped = *cand;
  std::vector<MulticastRequest> seed = blamed_instances(instances, remapped.assignment);
  const DeadlockOracle deadlocks = [&](const std::vector<MulticastRequest>& subset) {
    return subset_deadlocks(scenario, subset, cand->realizable);
  };
  if (config.shrink && deadlocks(seed)) {
    report.witness = shrunk_witness(scenario, shrink_instances(std::move(seed), deadlocks),
                                    cand->realizable);
  } else {
    report.witness = make_witness(scenario, std::move(seed), remapped);
  }
  return report;
}

std::string DeadlockWitness::format(const topo::Topology& topology) const {
  std::ostringstream out;
  out << "deadlock witness: " << instances.size() << " concurrent multicast(s)\n";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    out << "  M" << i << ": node " << instances[i].source << " -> {";
    for (std::size_t d = 0; d < instances[i].destinations.size(); ++d) {
      out << (d ? ", " : "") << instances[i].destinations[d];
    }
    out << "}\n";
  }
  out << "  dependency cycle (" << cycle.size() << " channels):\n";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const topo::ChannelEnds ends = topology.channel_ends(cycle[i].channel);
    out << "    c" << cycle[i].channel << " (" << ends.from << " -> " << ends.to << ", copy "
        << static_cast<unsigned>(cycle[i].copy) << ")";
    if (i < edge_instance.size()) {
      out << "  held by M" << edge_instance[i] << " waiting on the next channel";
    }
    out << "\n";
  }
  out << "  realizability: "
      << (realizable ? "confirmed (disjoint hold states found)"
                     : "not confirmed (over-approximate cycle)")
      << "\n";
  return out.str();
}

}  // namespace mcnet::analysis
