#include "analysis/relation.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/instances.hpp"
#include "cdg/analyzers.hpp"
#include "core/adaptive_path.hpp"
#include "core/dual_path.hpp"
#include "core/multi_path.hpp"
#include "core/routing_function.hpp"

namespace mcnet::analysis {

namespace {

using cdg::ChannelGraph;
using cdg::EdgeTag;
using mcast::MulticastRequest;
using topo::ChannelId;
using topo::NodeId;

// --- worm-state exploration ------------------------------------------------

// A set of worm keys (word strings identifying a worm spec) in flat
// storage: every key's words live in one arena, and an open-addressing
// table maps them to dense ids in insertion order.  Inserting allocates
// only when the arena or the table grows.
class WormKeyTable {
 public:
  /// Id of `key`, and whether this call inserted it.
  std::pair<std::uint32_t, bool> insert(std::span<const std::uint32_t> key) {
    if (2 * (offset_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        const auto id = static_cast<std::uint32_t>(offset_.size());
        slots_[i] = id + 1;
        offset_.push_back(static_cast<std::uint32_t>(words_.size()));
        words_.push_back(static_cast<std::uint32_t>(key.size()));
        words_.insert(words_.end(), key.begin(), key.end());
        return {id, true};
      }
      const std::uint32_t id = slots_[i] - 1;
      if (std::ranges::equal(stored(id), key)) return {id, false};
    }
  }

 private:
  static std::size_t hash(std::span<const std::uint32_t> key) {
    std::uint64_t h = 0xcbf29ce484222325ull ^ key.size();
    for (const std::uint32_t w : key) h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    return static_cast<std::size_t>(h ^ (h >> 33));
  }
  [[nodiscard]] std::span<const std::uint32_t> stored(std::uint32_t id) const {
    return {words_.data() + offset_[id] + 1, words_[offset_[id]]};
  }
  void grow() {
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < offset_.size(); ++id) {
      std::size_t i = hash(stored(id)) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

  std::vector<std::uint32_t> words_;   // per key: its length, then its words
  std::vector<std::uint32_t> offset_;  // per id: where its key starts in words_
  std::vector<std::uint32_t> slots_;   // id + 1, or 0 for an empty slot
};

// One header state of a worm: the index of the next target to reach and
// the node the header is at.
struct WormState {
  NodeId node = topo::kInvalidNode;
  std::uint32_t target_index = 0;
};

// One candidate hop out of a state: the successor state and the virtual
// channel the hop acquires.
struct Transition {
  std::uint32_t succ = 0;
  ChannelId vc = 0;
};

// (vc held, vc requested next).
using Dependency = std::pair<ChannelId, ChannelId>;

// The reachable header-state graph of one worm, as spans into a WormGraph.
// State ids are local to the worm; the initial state is state 0.
struct WormView {
  std::span<const WormState> states;
  std::span<const std::uint32_t> first;  // per state, then one past the last
  std::span<const Transition> transitions;
  std::span<const Dependency> edges;     // deduplicated CDG edges, sorted
  std::uint32_t num_targets = 0;
  std::uint32_t stuck = 0;

  [[nodiscard]] bool terminal(std::uint32_t s) const {
    return states[s].target_index >= num_targets;
  }
  [[nodiscard]] std::span<const Transition> next(std::uint32_t s) const {
    return transitions.subspan(first[s], first[s + 1] - first[s]);
  }
};

// Explored worms in flat arrays: each worm appends a run of states, a run
// of per-state offsets into its run of transitions, and a run of the CDG
// edges it induces.  Memoized worms accumulate in one WormGraph; a
// transient worm is explored into a cleared one, reusing its capacity.
struct WormGraph {
  // Where one worm's runs start in the arrays.
  struct Worm {
    std::uint32_t state = 0;
    std::uint32_t first = 0;
    std::uint32_t transition = 0;
    std::uint32_t edge = 0;
    std::uint32_t num_targets = 0;
    std::uint32_t stuck = 0;
  };
  std::vector<WormState> states;
  std::vector<std::uint32_t> first;
  std::vector<Transition> transitions;
  std::vector<Dependency> edges;
  std::vector<Worm> worms;

  void clear() {
    states.clear();
    first.clear();
    transitions.clear();
    edges.clear();
    worms.clear();
  }

  // Where a worm appended next would start.
  [[nodiscard]] Worm tail() const {
    return {static_cast<std::uint32_t>(states.size()), static_cast<std::uint32_t>(first.size()),
            static_cast<std::uint32_t>(transitions.size()),
            static_cast<std::uint32_t>(edges.size())};
  }

  [[nodiscard]] WormView view(std::uint32_t w) const {
    const Worm& a = worms[w];
    const Worm end = w + 1 == worms.size() ? tail() : worms[w + 1];
    return {{states.data() + a.state, end.state - a.state},
            {first.data() + a.first, end.first - a.first},
            {transitions.data() + a.transition, end.transition - a.transition},
            {edges.data() + a.edge, end.edge - a.edge},
            a.num_targets,
            a.stuck};
  }
};

class RelationEngine {
 public:
  explicit RelationEngine(const RoutingRelation& relation)
      : rel_(&relation),
        n_(relation.topology->num_nodes()),
        num_vcs_(relation.topology->num_channels() * relation.channel_copies) {}

  /// Pass A: build the tagged CDG over `instances`.  When `report` is
  /// non-null, also gather exploration stats and -- if the relation has an
  /// escape subfunction -- run the per-state escape checks (definedness,
  /// candidate membership, walk termination) and collect the global escape
  /// channel set.
  ChannelGraph build_cdg(const std::vector<MulticastRequest>& instances,
                         RelationReport* report) {
    ChannelGraph graph(num_vcs_);
    WormKeyTable seen;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const EdgeTag tag = static_cast<EdgeTag>(i);
      for (const WormSpec& spec : rel_->prepare(instances[i])) {
        if (spec.targets.empty()) continue;
        const std::span<const std::uint32_t> key = key_of(spec);
        const WormView worm = lookup(spec, key);
        for (const auto& [from, to] : worm.edges) graph.add_dependency(from, to, tag);
        if (report != nullptr && seen.insert(key).second) {
          report->worm_states += worm.states.size();
          report->stuck_states += worm.stuck;
          if (rel_->escape) check_escape(spec, worm, report->escape);
        }
      }
    }
    if (report != nullptr && rel_->escape) {
      report->escape.checked = true;
      report->escape.complete = report->escape.failures.empty();
      report->escape.escape_channels = escape_channels_;
    }
    return graph;
  }

  /// Pass B: close the extended escape dependency graph over every unique
  /// worm, given the escape channel set collected in pass A.  From each
  /// transition acquiring an escape channel a, every escape channel that
  /// can be *requested* after it -- directly or through any chain of
  /// adaptive (non-escape) acquisitions -- contributes an edge a -> c.
  /// Propagation stops at escape acquisitions: the crossed channel starts
  /// its own dependency chain in its own iteration.
  void close_extended_graph(const std::vector<MulticastRequest>& instances,
                            EscapeReport& escape) {
    ChannelGraph ext(num_vcs_);
    WormKeyTable done;
    for (const MulticastRequest& instance : instances) {
      for (const WormSpec& spec : rel_->prepare(instance)) {
        if (spec.targets.empty()) continue;
        const std::span<const std::uint32_t> key = key_of(spec);
        if (!done.insert(key).second) continue;
        const WormView worm = lookup(spec, key);
        mark_.assign(worm.states.size(), 0);
        std::uint32_t epoch = 0;
        for (std::uint32_t s = 0; s < worm.states.size(); ++s) {
          for (const auto& [entry, vc] : worm.next(s)) {
            if (!in_escape_set(vc)) continue;
            ++epoch;
            stack_.assign(1, entry);
            mark_[entry] = epoch;
            while (!stack_.empty()) {
              const std::uint32_t v = stack_.back();
              stack_.pop_back();
              for (const auto& [succ, vc2] : worm.next(v)) {
                if (in_escape_set(vc2)) {
                  // Self-dependencies are impossible for capacity-sound
                  // relations (a worm never re-requests a held channel).
                  if (vc2 != vc) ext.add_dependency(vc, vc2);
                } else if (mark_[succ] != epoch) {
                  mark_[succ] = epoch;
                  stack_.push_back(succ);
                }
              }
            }
          }
        }
      }
    }
    escape.extended_dependencies = ext.num_dependencies();
    escape.acyclic = ext.acyclic();
  }

 private:
  // Identity of a worm spec, for deduplicating exploration across
  // instances; valid until the next call.
  std::span<const std::uint32_t> key_of(const WormSpec& spec) {
    key_.assign({spec.channel_class, spec.source, spec.first_hop ? *spec.first_hop + 1 : 0,
                 spec.first_hop_copy});
    key_.insert(key_.end(), spec.targets.begin(), spec.targets.end());
    return key_;
  }

  // Memoize single-target worms (unicast fan-out relations re-prepare them
  // for thousands of instances); multi-target worms are nearly unique per
  // instance, so exploring them transiently avoids an unbounded cache.
  // The view is valid until the next lookup.
  WormView lookup(const WormSpec& spec, std::span<const std::uint32_t> key) {
    if (spec.targets.size() != 1) {
      scratch_.clear();
      return scratch_.view(explore(spec, scratch_));
    }
    const auto [id, inserted] = memo_keys_.insert(key);
    if (inserted) explore(spec, memo_);
    return memo_.view(id);
  }

  [[nodiscard]] ChannelId vc_of(NodeId from, NodeId to, std::uint8_t copy) const {
    const ChannelId c = rel_->topology->channel(from, to);
    if (c == topo::kInvalidChannel) {
      throw std::logic_error("relation \"" + rel_->name + "\" hops over a non-channel: " +
                             std::to_string(from) + " -> " + std::to_string(to));
    }
    return virtual_channel_id(c, copy, rel_->channel_copies);
  }

  // Explore the reachable header states of `spec` breadth-first and append
  // the worm to `g`; returns its index there.  States are (remaining target
  // index, current node) pairs, transitions the relation's candidate hops.
  std::uint32_t explore(const WormSpec& spec, WormGraph& g) {
    const auto num_targets = static_cast<std::uint32_t>(spec.targets.size());
    WormGraph::Worm worm = g.tail();
    worm.num_targets = num_targets;
    const auto normalize = [&](std::uint32_t idx, NodeId node) {
      while (idx < num_targets && node == spec.targets[idx]) ++idx;
      return idx;
    };
    // State ids come from a dense (target index, node) table whose cells are
    // stamped per exploration, so it is never cleared.
    const std::size_t cells = (std::size_t{num_targets} + 1) * n_;
    if (state_ids_.size() < cells) state_ids_.resize(cells);
    if (++stamp_ == 0) {
      for (StateCell& cell : state_ids_) cell.stamp = 0;
      stamp_ = 1;
    }
    const auto state_id = [&](std::uint32_t idx, NodeId node) {
      StateCell& cell = state_ids_[std::size_t{idx} * n_ + node];
      if (cell.stamp != stamp_) {
        cell = {stamp_, static_cast<std::uint32_t>(g.states.size() - worm.state)};
        g.states.push_back({node, idx});
      }
      return cell.id;
    };
    state_id(normalize(0, spec.source), spec.source);

    for (std::uint32_t s = 0; worm.state + s < g.states.size(); ++s) {
      g.first.push_back(static_cast<std::uint32_t>(g.transitions.size() - worm.transition));
      const WormState state = g.states[worm.state + s];
      if (state.target_index >= num_targets) continue;
      if (s == 0 && spec.first_hop.has_value()) {
        // Injection honours the forced first hop, bypassing the relation.
        hops_.assign(1, {*spec.first_hop, spec.first_hop_copy});
      } else {
        rel_->candidates(spec.channel_class, state.node, spec.targets[state.target_index],
                         hops_);
      }
      if (hops_.empty()) {
        ++worm.stuck;
        continue;
      }
      for (const RelationHop& hop : hops_) {
        const ChannelId vc = vc_of(state.node, hop.to, hop.copy);
        const std::uint32_t succ = state_id(normalize(state.target_index, hop.to), hop.to);
        g.transitions.push_back({succ, vc});
      }
    }
    g.first.push_back(static_cast<std::uint32_t>(g.transitions.size() - worm.transition));

    // CDG edges from pairs of transitions: a worm entering a state on
    // vc_in may next request any of that state's outgoing channels.
    const std::span<const std::uint32_t> first(g.first.data() + worm.first,
                                               g.first.size() - worm.first);
    const std::span<const Transition> transitions(g.transitions.data() + worm.transition,
                                                  g.transitions.size() - worm.transition);
    for (const Transition& in : transitions) {
      for (std::uint32_t k = first[in.succ]; k < first[in.succ + 1]; ++k) {
        if (transitions[k].vc != in.vc) g.edges.emplace_back(in.vc, transitions[k].vc);
      }
    }
    const auto edges = g.edges.begin() + worm.edge;
    std::sort(edges, g.edges.end());
    g.edges.erase(std::unique(edges, g.edges.end()), g.edges.end());
    g.worms.push_back(worm);
    return static_cast<std::uint32_t>(g.worms.size() - 1);
  }

  // Escape pass 1 over one unique worm: the escape hop must exist and be a
  // relation candidate at every reachable in-network non-terminal state
  // (the initial state holds no channels yet, so a worm blocked at
  // injection cannot sustain a deadlock), and escape-only walks must
  // terminate.  Escape channels are accumulated into the global set.
  void check_escape(const WormSpec& spec, const WormView& worm, EscapeReport& escape) {
    constexpr std::size_t kMaxFailures = 8;
    const auto fail = [&](const std::string& message) {
      if (escape.failures.size() < kMaxFailures) escape.failures.push_back(message);
    };
    constexpr std::uint32_t kNoSucc = static_cast<std::uint32_t>(-1);
    const auto num_states = static_cast<std::uint32_t>(worm.states.size());
    esc_succ_.assign(num_states, kNoSucc);
    for (std::uint32_t s = 1; s < num_states; ++s) {
      if (worm.terminal(s) || worm.next(s).empty()) continue;
      const NodeId node = worm.states[s].node;
      const NodeId target = spec.targets[worm.states[s].target_index];
      const RelationHop hop = rel_->escape(spec.channel_class, node, target);
      if (hop.to == topo::kInvalidNode) {
        fail("escape undefined at node " + std::to_string(node) + " toward node " +
             std::to_string(target));
        continue;
      }
      const ChannelId vc = vc_of(node, hop.to, hop.copy);
      std::uint32_t succ = kNoSucc;
      for (const auto& [next_state, next_vc] : worm.next(s)) {
        if (next_vc == vc) {
          succ = next_state;
          break;
        }
      }
      if (succ == kNoSucc) {
        fail("escape hop " + std::to_string(node) + " -> " + std::to_string(hop.to) +
             " (copy " + std::to_string(hop.copy) + ") is not a relation candidate");
        continue;
      }
      esc_succ_[s] = succ;
      add_escape_channel(vc);
    }
    // Escape-only walks form a functional graph over states; a revisit
    // means the escape subfunction alone cannot drain the worm.
    color_.assign(num_states, 0);  // 0 new, 1 active, 2 done
    for (std::uint32_t s = 0; s < num_states; ++s) {
      std::uint32_t v = s;
      trail_.clear();
      while (v != kNoSucc && color_[v] == 0) {
        color_[v] = 1;
        trail_.push_back(v);
        v = esc_succ_[v];
      }
      if (v != kNoSucc && color_[v] == 1) {
        fail("escape walk does not terminate from node " +
             std::to_string(worm.states[v].node));
      }
      for (const std::uint32_t t : trail_) color_[t] = 2;
    }
  }

  void add_escape_channel(ChannelId vc) {
    if (escape_set_.empty()) escape_set_.assign(num_vcs_, false);
    if (!escape_set_[vc]) {
      escape_set_[vc] = true;
      ++escape_channels_;
    }
  }
  [[nodiscard]] bool in_escape_set(ChannelId vc) const {
    return !escape_set_.empty() && escape_set_[vc];
  }

  struct StateCell {
    std::uint32_t stamp = 0;
    std::uint32_t id = 0;
  };

  const RoutingRelation* rel_;
  std::uint32_t n_;
  std::uint32_t num_vcs_;
  WormKeyTable memo_keys_;  // memoized worm i is memo_.view(i)
  WormGraph memo_;
  WormGraph scratch_;
  std::vector<bool> escape_set_;
  std::size_t escape_channels_ = 0;
  // Reused scratch.
  std::vector<std::uint32_t> key_;
  std::vector<StateCell> state_ids_;
  std::uint32_t stamp_ = 0;
  std::vector<RelationHop> hops_;
  std::vector<std::uint32_t> esc_succ_;
  std::vector<std::uint8_t> color_;
  std::vector<std::uint32_t> trail_;
  std::vector<std::uint32_t> mark_;
  std::vector<std::uint32_t> stack_;
};

// --- witness construction --------------------------------------------------

DeadlockWitness relation_witness(const RoutingRelation& rel,
                                 std::vector<MulticastRequest> instances,
                                 const TaggedCycle& cycle) {
  DeadlockWitness witness;
  witness.instances = std::move(instances);
  witness.cycle.reserve(cycle.vcs.size());
  for (const ChannelId vc : cycle.vcs) {
    witness.cycle.push_back({vc / rel.channel_copies,
                             static_cast<std::uint8_t>(vc % rel.channel_copies)});
  }
  witness.edge_instance.assign(cycle.edge_instance.begin(), cycle.edge_instance.end());
  // Adaptive relations fix no single route per worm, so no hold-state
  // reconstruction exists; relation witnesses stay over-approximate.
  witness.realizable = false;
  return witness;
}

// Witness over an already shrunk instance set: re-derive its cycle.
DeadlockWitness shrunk_relation_witness(const RoutingRelation& rel,
                                        std::vector<MulticastRequest> working) {
  RelationEngine engine(rel);
  const ChannelGraph graph = engine.build_cdg(working, nullptr);
  const auto cycle = find_multi_instance_cycle(graph);
  if (!cycle) {
    // Cannot happen (shrinking only keeps cycling subsets); stay safe.
    DeadlockWitness witness;
    witness.instances = std::move(working);
    return witness;
  }
  return relation_witness(rel, std::move(working), *cycle);
}

}  // namespace

bool relation_subset_deadlocks(const RoutingRelation& relation,
                               const std::vector<MulticastRequest>& instances) {
  RelationEngine engine(relation);
  const ChannelGraph graph = engine.build_cdg(instances, nullptr);
  return find_multi_instance_cycle(graph).has_value();
}

RelationReport analyze_relation(const RoutingRelation& relation, const AnalysisConfig& config) {
  const std::vector<MulticastRequest> instances =
      enumerate_instances(*relation.topology, config.max_set_size, config.max_instances);

  RelationReport report;
  report.instances_analyzed = instances.size();
  RelationEngine engine(relation);
  const ChannelGraph graph = engine.build_cdg(instances, &report);
  report.virtual_channels = graph.num_channels();
  report.dependencies = graph.num_dependencies();
  report.cdg_acyclic = graph.acyclic();
  if (relation.escape && report.escape.complete) {
    engine.close_extended_graph(instances, report.escape);
  }
  if (report.certified()) return report;

  const auto cycle = find_multi_instance_cycle(graph);
  if (!cycle) return report;
  // Seed the witness with the instances the cycle blames, then shrink.
  TaggedCycle remapped = *cycle;
  std::vector<MulticastRequest> seed = blamed_instances(instances, remapped.edge_instance);
  const DeadlockOracle deadlocks = [&](const std::vector<MulticastRequest>& subset) {
    return relation_subset_deadlocks(relation, subset);
  };
  if (config.shrink && deadlocks(seed)) {
    report.witness =
        shrunk_relation_witness(relation, shrink_instances(std::move(seed), deadlocks));
  } else {
    report.witness = relation_witness(relation, std::move(seed), remapped);
  }
  return report;
}

// --- the shipped relations -------------------------------------------------

namespace {

std::vector<WormSpec> dual_path_worms(const ham::Labeling& labeling,
                                      const MulticastRequest& request) {
  mcast::DualPathSplit split;
  mcast::dual_path_prepare(labeling, request, split);
  std::vector<WormSpec> worms;
  worms.reserve(2);
  if (!split.high.empty()) {
    worms.push_back(
        {mcast::kHighChannelClass, request.source, std::nullopt, 0, std::move(split.high)});
  }
  if (!split.low.empty()) {
    worms.push_back(
        {mcast::kLowChannelClass, request.source, std::nullopt, 0, std::move(split.low)});
  }
  return worms;
}

std::vector<WormSpec> unicast_fanout_worms(const MulticastRequest& request) {
  std::vector<WormSpec> worms;
  worms.reserve(request.destinations.size());
  for (const NodeId d : request.destinations) {
    if (d == request.source) continue;
    worms.push_back({0, request.source, std::nullopt, 0, {d}});
  }
  return worms;
}

void minimal_candidates(const topo::Topology& topology, NodeId cur, NodeId target,
                        std::uint8_t copy, std::vector<RelationHop>& out) {
  const std::uint32_t dist = topology.distance(cur, target);
  for (const NodeId p : topology.neighbors(cur)) {
    if (topology.distance(p, target) < dist) out.push_back({p, copy});
  }
}

cdg::RoutingFunction dimension_order_escape(const Fixture& fixture) {
  if (fixture.mesh2d != nullptr) return cdg::xfirst_routing(*fixture.mesh2d);
  if (fixture.cube != nullptr) return cdg::ecube_routing(*fixture.cube);
  if (fixture.mesh3d != nullptr) return cdg::zfirst_routing(*fixture.mesh3d);
  if (fixture.kary != nullptr) return cdg::dimension_order_routing(*fixture.kary);
  throw std::invalid_argument("no dimension-order escape routing on " +
                              fixture.topology->name());
}

}  // namespace

std::vector<std::string> verifiable_relations(const Fixture& fixture) {
  if (fixture.labeling == nullptr) return {"min-adaptive", "min-adaptive-escape"};
  return {"adaptive-dual-path", "dual-path",    "multi-path",
          "fixed-path",         "min-adaptive", "min-adaptive-escape"};
}

RoutingRelation make_relation(const Fixture& fixture, const std::string& name) {
  RoutingRelation rel;
  rel.name = name;
  rel.topology = fixture.topology.get();
  const topo::Topology* topology = fixture.topology.get();
  const ham::Labeling* labeling = fixture.labeling.get();
  const auto require_labeling = [&] {
    if (labeling == nullptr) {
      throw std::invalid_argument("relation \"" + name + "\" needs a Hamiltonian labeling on " +
                                  fixture.topology->name());
    }
  };

  if (name == "adaptive-dual-path") {
    require_labeling();
    rel.prepare = [labeling](const MulticastRequest& r) { return dual_path_worms(*labeling, r); };
    rel.candidates = [topology, labeling](std::uint8_t, NodeId cur, NodeId target,
                                          std::vector<RelationHop>& out) {
      thread_local std::vector<NodeId> next;
      mcast::monotone_candidates_into(*topology, *labeling, cur, target, next);
      out.clear();
      for (const NodeId p : next) out.push_back({p, 0});
    };
    const mcast::LabelRouter router(*topology, *labeling);
    rel.escape = [router](std::uint8_t, NodeId cur, NodeId target) -> RelationHop {
      return {router.next_hop(cur, target), 0};
    };
    return rel;
  }

  if (name == "dual-path" || name == "multi-path") {
    require_labeling();
    if (name == "dual-path") {
      rel.prepare = [labeling](const MulticastRequest& r) {
        return dual_path_worms(*labeling, r);
      };
    } else {
      rel.prepare = [topology, labeling](const MulticastRequest& r) {
        std::vector<WormSpec> worms;
        for (mcast::MultiPathWorm& w : mcast::multi_path_prepare(*topology, *labeling, r)) {
          worms.push_back({w.channel_class, r.source, w.first_hop, 0, std::move(w.targets)});
        }
        return worms;
      };
    }
    const mcast::LabelRouter router(*topology, *labeling);
    rel.candidates = [router](std::uint8_t, NodeId cur, NodeId target,
                              std::vector<RelationHop>& out) {
      out.clear();
      const NodeId next = router.next_hop(cur, target);
      if (next != topo::kInvalidNode) out.push_back({next, 0});
    };
    return rel;
  }

  if (name == "fixed-path") {
    require_labeling();
    rel.prepare = [labeling](const MulticastRequest& r) { return dual_path_worms(*labeling, r); };
    rel.candidates = [labeling](std::uint8_t, NodeId cur, NodeId target,
                                std::vector<RelationHop>& out) {
      out.clear();
      const std::uint32_t lc = labeling->label(cur);
      const std::uint32_t lt = labeling->label(target);
      out.push_back({labeling->node_at(lt > lc ? lc + 1 : lc - 1), 0});
    };
    return rel;
  }

  if (name == "min-adaptive") {
    // Planted negative control: fully adaptive minimal routing with no
    // escape -- the classic turn/ring cycles deadlock every CI topology.
    rel.claimed_deadlock_free = false;
    rel.prepare = [](const MulticastRequest& r) { return unicast_fanout_worms(r); };
    rel.candidates = [topology](std::uint8_t, NodeId cur, NodeId target,
                                std::vector<RelationHop>& out) {
      out.clear();
      minimal_candidates(*topology, cur, target, 0, out);
    };
    return rel;
  }

  if (name == "min-adaptive-escape") {
    // Minimal adaptive routing on VC copy 1 with a dimension-order escape
    // pinned to copy 0: Duato-certifiable on the mesh-like topologies; on
    // wraparound rings the dimension-order escape itself cycles (the
    // classic torus counterexample), so the control flips to DEADLOCK.
    rel.channel_copies = 2;
    rel.claimed_deadlock_free = fixture.kary == nullptr || !fixture.kary->wraps();
    const cdg::RoutingFunction esc = dimension_order_escape(fixture);
    rel.prepare = [](const MulticastRequest& r) { return unicast_fanout_worms(r); };
    rel.candidates = [topology, esc](std::uint8_t, NodeId cur, NodeId target,
                                     std::vector<RelationHop>& out) {
      out.clear();
      const NodeId e = esc(cur, target);
      if (e != topo::kInvalidNode) out.push_back({e, 0});
      minimal_candidates(*topology, cur, target, 1, out);
    };
    rel.escape = [esc](std::uint8_t, NodeId cur, NodeId target) -> RelationHop {
      return {esc(cur, target), 0};
    };
    return rel;
  }

  throw std::invalid_argument("unknown relation \"" + name + "\"");
}

}  // namespace mcnet::analysis
