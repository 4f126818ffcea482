// Tests for the static multicast analyzer (src/analysis/): instance
// enumeration, dependency extraction under both tree semantics, the pinned
// naive-tree deadlock regression, clean proofs for the Chapter 6
// algorithms, the invariant sweep, and hashes pinning the analyzer's exact
// outputs on the CI topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/instances.hpp"
#include "analysis/invariants.hpp"
#include "analysis/mcdg.hpp"
#include "analysis/relation.hpp"
#include "analysis/scenario.hpp"
#include "core/dual_path.hpp"
#include "core/router.hpp"

namespace {

using namespace mcnet;
using analysis::AnalysisConfig;
using analysis::DeadlockReport;
using analysis::InvariantReport;
using analysis::Scenario;
using analysis::TreeSemantics;
using mcast::Algorithm;
using mcast::MulticastRequest;
using mcast::MulticastRoute;
using mcast::TreeRoute;
using topo::ChannelId;
using topo::NodeId;

TEST(Instances, EnumeratesEverySourceAndDestinationSet) {
  const auto fixture = analysis::make_fixture("mesh:3x3");
  const std::size_t expected = analysis::count_instances(9, 2);  // 9 * (8 + C(8,2))
  EXPECT_EQ(expected, 9u * (8u + 28u));
  const auto instances = analysis::enumerate_instances(*fixture.topology, 2, 0);
  EXPECT_EQ(instances.size(), expected);
  std::set<std::pair<NodeId, std::vector<NodeId>>> seen;
  for (const MulticastRequest& r : instances) {
    EXPECT_FALSE(r.destinations.empty());
    EXPECT_TRUE(std::is_sorted(r.destinations.begin(), r.destinations.end()));
    EXPECT_EQ(std::count(r.destinations.begin(), r.destinations.end(), r.source), 0);
    seen.insert({r.source, r.destinations});
  }
  EXPECT_EQ(seen.size(), expected);  // no duplicates
}

TEST(Instances, StrideSamplingRespectsBudget) {
  const auto fixture = analysis::make_fixture("mesh:4x4");
  const auto sampled = analysis::enumerate_instances(*fixture.topology, 2, 100);
  EXPECT_GT(sampled.size(), 50u);
  EXPECT_LE(sampled.size(), 110u);  // stride rounding may slightly overshoot
}

// Reference enumeration: walk every combination of every source in order
// and keep every stride-th one.
std::vector<MulticastRequest> walked_instances(std::uint32_t n, std::uint32_t max_set_size,
                                               std::size_t max_instances) {
  const std::size_t total = analysis::count_instances(n, max_set_size);
  const std::size_t stride = max_instances == 0 || total <= max_instances
                                 ? 1
                                 : (total + max_instances - 1) / max_instances;
  std::vector<MulticastRequest> out;
  std::size_t index = 0;
  for (NodeId src = 0; src < n; ++src) {
    std::vector<NodeId> others;
    for (NodeId v = 0; v < n; ++v) {
      if (v != src) others.push_back(v);
    }
    for (std::uint32_t s = 1; s <= max_set_size && s <= n - 1; ++s) {
      std::vector<std::uint32_t> pick(s);
      for (std::uint32_t i = 0; i < s; ++i) pick[i] = i;
      for (;;) {
        if (index++ % stride == 0) {
          MulticastRequest req{src, {}};
          for (const std::uint32_t i : pick) req.destinations.push_back(others[i]);
          out.push_back(std::move(req));
        }
        std::uint32_t j = s;
        while (j > 0 && pick[j - 1] == n - 1 - s + j - 1) --j;
        if (j == 0) break;
        ++pick[j - 1];
        for (std::uint32_t i = j; i < s; ++i) pick[i] = pick[i - 1] + 1;
      }
    }
  }
  return out;
}

TEST(Instances, SampledEnumerationMatchesTheFullWalk) {
  for (const char* spec : {"mesh:3x3", "mesh:4x4", "cube:4", "kary:3x2"}) {
    const auto fixture = analysis::make_fixture(spec);
    const std::uint32_t n = fixture.topology->num_nodes();
    for (const std::uint32_t max_set_size : {1u, 2u, 3u, 4u, n - 1, n + 3}) {
      for (const std::size_t max_instances : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                              std::size_t{100}, std::size_t{997},
                                              std::size_t{5000}}) {
        if (analysis::count_instances(n, max_set_size) > 200000 && max_instances == 0) continue;
        ASSERT_EQ(analysis::enumerate_instances(*fixture.topology, max_set_size, max_instances),
                  walked_instances(n, max_set_size, max_instances))
            << spec << " max_set_size " << max_set_size << " max_instances " << max_instances;
      }
    }
  }
}

// 64 * (2^63 - 1) instances do not fit in size_t: the count saturates, and
// an enumeration over a space it cannot index is refused by name instead of
// walking it for ever.
TEST(Instances, SaturatedCountIsRejected) {
  constexpr std::size_t kMax = static_cast<std::size_t>(-1);
  EXPECT_EQ(analysis::count_instances(64, 2), 64u * (63u + 63u * 62u / 2u));
  EXPECT_EQ(analysis::count_instances(58, 57), 58u * ((std::size_t{1} << 57) - 1));
  ASSERT_EQ(analysis::count_instances(64, 63), kMax);
  EXPECT_EQ(analysis::count_instances(1u << 22, 2), kMax);
  const auto fixture = analysis::make_fixture("cube:6");
  try {
    (void)analysis::enumerate_instances(*fixture.topology, 63, 20000);
    ADD_FAILURE() << "a saturated instance count was enumerated";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_set_size"), std::string::npos) << e.what();
  }
  // A space that fits but is far too large to walk is sampled by jumping.
  ASSERT_LT(analysis::count_instances(64, 23), kMax);
  const auto sampled = analysis::enumerate_instances(*fixture.topology, 23, 1000);
  EXPECT_EQ(sampled.size(), 1000u);
  EXPECT_EQ(sampled.front(), (MulticastRequest{0, {1}}));
}

// A zero set-size bound enumerates nothing, so an analysis run on it would
// certify CLEAN over zero instances.  Every analysis must refuse instead,
// naming the field.
TEST(Instances, ZeroMaxSetSizeIsRejectedByEveryAnalysis) {
  const auto fixture = analysis::make_fixture("mesh:4x4");
  const auto expect_refused = [](const char* what, const std::function<void()>& run) {
    try {
      run();
      ADD_FAILURE() << what << " accepted max_set_size == 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("max_set_size"), std::string::npos) << e.what();
    }
  };
  AnalysisConfig empty;
  empty.max_set_size = 0;
  const Scenario s = analysis::make_scenario(fixture, Algorithm::kXFirstMT);
  expect_refused("enumerate_instances",
                 [&] { (void)analysis::enumerate_instances(*fixture.topology, 0); });
  expect_refused("analyze_deadlock", [&] { (void)analysis::analyze_deadlock(s, empty); });
  expect_refused("check_invariants", [&] { (void)analysis::check_invariants(s, empty); });
  expect_refused("analyze_relation", [&] {
    (void)analysis::analyze_relation(analysis::make_relation(fixture, "min-adaptive"), empty);
  });
}

TEST(Scenario, VerifiableAlgorithmsMatchTopology) {
  const auto mesh = analysis::make_fixture("mesh:4x4");
  const auto mesh_algos = analysis::verifiable_algorithms(mesh);
  EXPECT_TRUE(std::count(mesh_algos.begin(), mesh_algos.end(), Algorithm::kXFirstMT));
  EXPECT_TRUE(std::count(mesh_algos.begin(), mesh_algos.end(), Algorithm::kDCXFirstTree));

  const auto cube = analysis::make_fixture("cube:3");
  const auto cube_algos = analysis::verifiable_algorithms(cube);
  EXPECT_TRUE(std::count(cube_algos.begin(), cube_algos.end(), Algorithm::kEcubeMT));
  EXPECT_TRUE(
      std::count(cube_algos.begin(), cube_algos.end(), Algorithm::kBinomialBroadcast));

  for (const char* spec : {"mesh3:3x3x3", "kary:4x2"}) {
    const auto f = analysis::make_fixture(spec);
    const auto algos = analysis::verifiable_algorithms(f);
    EXPECT_TRUE(std::count(algos.begin(), algos.end(), Algorithm::kDualPath)) << spec;
    EXPECT_TRUE(std::count(algos.begin(), algos.end(), Algorithm::kMultiPath)) << spec;
    EXPECT_TRUE(std::count(algos.begin(), algos.end(), Algorithm::kFixedPath)) << spec;
  }
}

TEST(Scenario, RejectsAlgorithmTopologyMismatch) {
  const auto mesh = analysis::make_fixture("mesh:4x4");
  EXPECT_THROW((void)analysis::make_scenario(mesh, Algorithm::kEcubeMT),
               std::invalid_argument);
  const auto cube = analysis::make_fixture("cube:3");
  EXPECT_THROW((void)analysis::make_scenario(cube, Algorithm::kXFirstMT),
               std::invalid_argument);
}

// The analyzer must certify the routes the simulator runs: on every
// topology of the CI verification matrix, each verifiable algorithm's
// scenario routes every enumerated instance exactly as make_router does.
TEST(Scenario, RoutesAreTheSimulatorsRoutes) {
  for (const char* spec : {"mesh:5x4", "cube:4", "mesh3:3x3x3", "kary:4x2", "karymesh:4x3"}) {
    SCOPED_TRACE(spec);
    const auto fixture = analysis::make_fixture(spec);
    const auto instances =
        analysis::enumerate_instances(*fixture.topology, AnalysisConfig{}.max_set_size, 3000);
    ASSERT_FALSE(instances.empty());
    for (const Algorithm a : analysis::verifiable_algorithms(fixture)) {
      SCOPED_TRACE(std::string(mcast::algorithm_name(a)));
      const Scenario scenario = analysis::make_scenario(fixture, a);
      const auto router = mcast::make_router(*fixture.topology, a);
      for (const MulticastRequest& req : instances) {
        ASSERT_EQ(scenario.route(req), router->route(req));
      }
    }
  }
}

// Hand-planted tree: two root branches of two links each, created in order
// (spine first).  Under lock-step semantics the two branch channels must
// depend on each other (the cross-branch 2-cycle shape); under independent
// branches only parent -> child edges may appear.
TEST(Mcdg, TreeSemanticsControlDependencyExtraction) {
  const auto fixture = analysis::make_fixture("mesh:3x3");
  const auto* mesh = fixture.mesh2d;
  TreeRoute tree;
  tree.source = mesh->node(1, 1);
  const auto l0 = tree.add_link(mesh->node(1, 1), mesh->node(1, 0), -1);
  const auto l1 =
      tree.add_link(mesh->node(1, 0), mesh->node(0, 0), static_cast<std::int32_t>(l0));
  const auto l2 = tree.add_link(mesh->node(1, 1), mesh->node(1, 2), -1);
  const auto l3 =
      tree.add_link(mesh->node(1, 2), mesh->node(2, 2), static_cast<std::int32_t>(l2));
  tree.delivery_links = {l1, l3};
  MulticastRoute route;
  route.source = tree.source;
  route.trees.push_back(tree);

  const auto channel = [&](std::uint32_t a, std::uint32_t b) {
    const ChannelId c = mesh->channel(a, b);
    EXPECT_NE(c, topo::kInvalidChannel);
    return c;
  };
  const ChannelId spine2 = channel(mesh->node(1, 0), mesh->node(0, 0));   // l1
  const ChannelId branch1 = channel(mesh->node(1, 1), mesh->node(1, 2));  // l2
  const ChannelId branch2 = channel(mesh->node(1, 2), mesh->node(2, 2));  // l3

  Scenario s;
  s.topology = fixture.topology.get();
  s.tree_semantics = TreeSemantics::kLockStep;
  cdg::ChannelGraph lockstep(fixture.topology->num_channels());
  analysis::add_route_dependencies(s, route, lockstep, 7);
  // Cross-branch wait both ways between the two second-hop channels: l3 is
  // not in l1's acquisition closure and vice versa.
  EXPECT_EQ(lockstep.edge_tags(spine2, branch2).size(), 1u);
  EXPECT_EQ(lockstep.edge_tags(spine2, branch2).front(), 7u);
  EXPECT_FALSE(lockstep.edge_tags(branch2, spine2).empty());
  // l2's closure contains l0 (earlier root sibling) but never l1.
  EXPECT_FALSE(lockstep.edge_tags(spine2, branch1).empty());

  s.tree_semantics = TreeSemantics::kIndependentBranches;
  cdg::ChannelGraph independent(fixture.topology->num_channels());
  analysis::add_route_dependencies(s, route, independent, 7);
  // Only parent -> child pairs: 2 edges, no cross-branch dependencies.
  EXPECT_EQ(independent.num_dependencies(), 2u);
  EXPECT_FALSE(independent.edge_tags(branch1, branch2).empty());
  EXPECT_TRUE(independent.edge_tags(spine2, branch2).empty());
  EXPECT_TRUE(independent.edge_tags(branch2, spine2).empty());
}

// Regression pin for the paper's central negative result (Section 6.1): the
// naive X-first multicast tree deadlocks on a 2-D mesh, and the analyzer
// must shrink the counterexample to two concurrent double-destination
// multicasts whose dependency cycle has length two and is realizable (the
// two worms' hold states are channel-disjoint).
TEST(McdgRegression, NaiveXFirstTreeYieldsShrunkRealizableWitness) {
  const auto fixture = analysis::make_fixture("mesh:4x4");
  const Scenario s = analysis::make_scenario(fixture, Algorithm::kXFirstMT);
  const DeadlockReport report = analysis::analyze_deadlock(s, {});
  EXPECT_GT(report.dependencies, 0u);
  ASSERT_FALSE(report.deadlock_free());
  const auto& w = *report.witness;
  ASSERT_EQ(w.instances.size(), 2u);
  // Shrinking cannot go below two destinations per multicast: a single
  // destination makes the tree a path, and X-first paths cannot close a
  // two-instance cycle.
  EXPECT_EQ(w.instances[0].destinations.size(), 2u);
  EXPECT_EQ(w.instances[1].destinations.size(), 2u);
  ASSERT_EQ(w.cycle.size(), 2u);
  EXPECT_NE(w.cycle[0].channel, w.cycle[1].channel);
  ASSERT_EQ(w.edge_instance.size(), 2u);
  EXPECT_NE(w.edge_instance[0], w.edge_instance[1]);
  EXPECT_TRUE(w.realizable);
  EXPECT_FALSE(w.format(*fixture.topology).empty());
}

// The delta-debugged witness must be 1-minimal: dropping any single
// instance from the shrunk pair leaves a deadlock-free subset (a lone
// X-first tree cannot close a cycle on its own).
TEST(McdgRegression, ShrunkNaiveTreeWitnessIsOneMinimal) {
  const auto fixture = analysis::make_fixture("mesh:4x4");
  const Scenario s = analysis::make_scenario(fixture, Algorithm::kXFirstMT);
  const DeadlockReport report = analysis::analyze_deadlock(s, {});
  ASSERT_TRUE(report.witness.has_value());
  const auto& instances = report.witness->instances;
  EXPECT_TRUE(analysis::subset_deadlocks(s, instances, /*require_realizable=*/true));
  for (std::size_t drop = 0; drop < instances.size(); ++drop) {
    std::vector<MulticastRequest> subset;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (i != drop) subset.push_back(instances[i]);
    }
    EXPECT_FALSE(analysis::subset_deadlocks(s, subset, /*require_realizable=*/true))
        << "witness not 1-minimal: instance " << drop << " is redundant";
  }
}

// The shared delta-debugging shrinker knows nothing but its oracle: with a
// synthetic oracle that needs node 1 sending to 5 and node 2 sending to 7,
// every other instance and destination must go.
TEST(Mcdg, ShrinkInstancesKeepsOnlyWhatTheOracleNeeds) {
  const std::vector<MulticastRequest> seed = {
      {0, {3, 4}}, {1, {5, 6, 8}}, {2, {9, 7}}, {3, {1}}};
  const analysis::DeadlockOracle needs = [](const std::vector<MulticastRequest>& set) {
    const auto sends = [&](NodeId src, NodeId dst) {
      return std::any_of(set.begin(), set.end(), [&](const MulticastRequest& r) {
        return r.source == src && std::count(r.destinations.begin(), r.destinations.end(),
                                             dst) > 0;
      });
    };
    return sends(1, 5) && sends(2, 7);
  };
  const std::vector<MulticastRequest> shrunk = analysis::shrink_instances(seed, needs);
  EXPECT_EQ(shrunk, (std::vector<MulticastRequest>{{1, {5}}, {2, {7}}}));
}

// Every single-instance cycle the search meets retires one tag, so it may
// take as many rounds as there are tags before it reaches a two-instance
// cycle: 257 disjoint single-instance 2-cycles ahead of one two-instance
// 2-cycle must not make it give up.
TEST(Mcdg, MultiInstanceSearchOutlastsManySingleInstanceCycles) {
  constexpr ChannelId kDecoys = 257;
  cdg::ChannelGraph g(2 * kDecoys + 2);
  for (ChannelId i = 0; i < kDecoys; ++i) {
    g.add_dependency(2 * i, 2 * i + 1, i);
    g.add_dependency(2 * i + 1, 2 * i, i);
  }
  g.add_dependency(2 * kDecoys, 2 * kDecoys + 1, 1000);
  g.add_dependency(2 * kDecoys + 1, 2 * kDecoys, 1001);
  const auto cycle = analysis::find_multi_instance_cycle(g);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->vcs, (std::vector<ChannelId>{2 * kDecoys, 2 * kDecoys + 1}));
  EXPECT_EQ(cycle->edge_instance, (std::vector<cdg::EdgeTag>{1000, 1001}));
}

TEST(Mcdg, BlamedInstancesRemapsEdgeTagsOntoTheSeed) {
  const std::vector<MulticastRequest> instances = {
      {0, {1}}, {1, {2}}, {2, {3}}, {3, {4}}, {4, {5}}};
  std::vector<cdg::EdgeTag> edge_instance = {4, 1, 4, 1};
  const std::vector<MulticastRequest> seed =
      analysis::blamed_instances(instances, edge_instance);
  EXPECT_EQ(seed, (std::vector<MulticastRequest>{instances[1], instances[4]}));
  EXPECT_EQ(edge_instance, (std::vector<cdg::EdgeTag>{1, 0, 1, 0}));
}

TEST(McdgRegression, NaiveHypercubeTreesDeadlock) {
  const auto fixture = analysis::make_fixture("cube:3");
  for (const Algorithm a : {Algorithm::kEcubeMT, Algorithm::kBinomialBroadcast}) {
    const Scenario s = analysis::make_scenario(fixture, a);
    const DeadlockReport report = analysis::analyze_deadlock(s, {});
    EXPECT_FALSE(report.deadlock_free()) << s.name;
    ASSERT_TRUE(report.witness.has_value()) << s.name;
    EXPECT_GE(report.witness->instances.size(), 2u) << s.name;
  }
}

TEST(Mcdg, ChapterSixAlgorithmsProveClean) {
  const struct {
    const char* spec;
    std::vector<Algorithm> algorithms;
  } cases[] = {
      {"mesh:4x4",
       {Algorithm::kDCXFirstTree, Algorithm::kDualPath, Algorithm::kMultiPath,
        Algorithm::kFixedPath}},
      {"cube:3", {Algorithm::kDualPath, Algorithm::kMultiPath, Algorithm::kFixedPath}},
      {"mesh3:2x3x3", {Algorithm::kDualPath, Algorithm::kFixedPath}},
      {"kary:4x2", {Algorithm::kDualPath, Algorithm::kMultiPath}},
  };
  for (const auto& c : cases) {
    const auto fixture = analysis::make_fixture(c.spec);
    for (const Algorithm a : c.algorithms) {
      const Scenario s = analysis::make_scenario(fixture, a);
      const DeadlockReport deadlock = analysis::analyze_deadlock(s, {});
      EXPECT_TRUE(deadlock.deadlock_free()) << s.name;
      const InvariantReport inv = analysis::check_invariants(s, {});
      EXPECT_TRUE(inv.ok()) << s.name << ": " << inv.violations << " violations";
      EXPECT_GT(inv.instances_checked, 0u) << s.name;
    }
  }
}

TEST(Mcdg, WitnessSurvivesWithShrinkingDisabled) {
  const auto fixture = analysis::make_fixture("mesh:4x4");
  const Scenario s = analysis::make_scenario(fixture, Algorithm::kXFirstMT);
  AnalysisConfig config;
  config.shrink = false;
  const DeadlockReport report = analysis::analyze_deadlock(s, config);
  ASSERT_FALSE(report.deadlock_free());
  EXPECT_GE(report.witness->instances.size(), 2u);
  EXPECT_GE(report.witness->cycle.size(), 2u);
}

// The invariant sweep must flag deliberately broken routes: a route that
// walks source -> dest -> source -> dest breaks label monotonicity, reuses
// a channel, and overshoots the shortest-path bound; an algorithm that
// throws for some instance breaks reachability totality.
TEST(Invariants, FlagsBrokenRoutes) {
  const auto fixture = analysis::make_fixture("mesh:3x3");
  Scenario s;
  s.topology = fixture.topology.get();
  s.labeling = fixture.labeling.get();
  s.label_monotone_paths = true;
  s.shortest_unicast = true;
  s.route = [&fixture](const MulticastRequest& r) {
    if (r.destinations.size() != 1) {
      throw std::runtime_error("only unicast supported");
    }
    const NodeId dest = r.destinations.front();
    MulticastRoute route;
    route.source = r.source;
    mcast::PathRoute path;
    path.channel_class = mcast::kHighChannelClass;
    // Ping-pong to an adjacent destination; otherwise a plain two-node path.
    if (fixture.topology->channel(r.source, dest) != topo::kInvalidChannel) {
      path.nodes = {r.source, dest, r.source, dest};
      path.delivery_hops = {3};
    } else {
      path.nodes = {r.source};
      NodeId cur = r.source;
      // Greedy walk: step to any neighbour closer to dest (grid distance).
      while (cur != dest) {
        for (const NodeId n : fixture.topology->neighbors(cur)) {
          if (fixture.topology->distance(n, dest) < fixture.topology->distance(cur, dest)) {
            cur = n;
            break;
          }
        }
        path.nodes.push_back(cur);
      }
      path.delivery_hops = {static_cast<std::uint32_t>(path.nodes.size() - 1)};
    }
    route.paths.push_back(std::move(path));
    return route;
  };

  // The adjacent ping-pong routes violate capacity, monotonicity and the
  // shortest-path bound; at least one of each must be flagged.
  AnalysisConfig unicast;
  unicast.max_set_size = 1;
  const InvariantReport report = analysis::check_invariants(s, unicast);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.violations, 0u);
  std::set<std::string> kinds;
  for (const auto& v : report.samples) kinds.insert(v.kind);
  EXPECT_TRUE(kinds.contains("capacity"));
  EXPECT_TRUE(kinds.contains("label-monotone"));
  EXPECT_TRUE(kinds.contains("shortest"));

  // An algorithm that throws for some instance breaks reachability totality.
  Scenario throwing = s;
  throwing.route = [](const MulticastRequest&) -> MulticastRoute {
    throw std::runtime_error("unroutable");
  };
  const InvariantReport unreachable = analysis::check_invariants(throwing, unicast);
  EXPECT_FALSE(unreachable.ok());
  EXPECT_EQ(unreachable.violations, unreachable.instances_checked);
  ASSERT_FALSE(unreachable.samples.empty());
  EXPECT_EQ(unreachable.samples.front().kind, "reachability");
}

TEST(Invariants, CleanAlgorithmsPassOnWraparoundTorus) {
  // The shortest-unicast claim is relaxed on wraparound rings (the label
  // router cannot shortcut across wrap channels), so dual-path must still
  // report zero violations there.
  const auto fixture = analysis::make_fixture("kary:3x2");
  const Scenario s = analysis::make_scenario(fixture, Algorithm::kDualPath);
  EXPECT_FALSE(s.shortest_unicast);
  const InvariantReport report = analysis::check_invariants(s, {});
  EXPECT_TRUE(report.ok()) << report.violations << " violations";
}

// --- pinned outputs -------------------------------------------------------

std::string witness_text(const std::optional<analysis::DeadlockWitness>& witness,
                         const topo::Topology& topology) {
  return witness ? witness->format(topology) : "no witness\n";
}

// Every verdict, count, escape field and witness the analyzer reports on
// one topology, as text: the deadlock and invariant reports of each
// verifiable algorithm and the report of each verifiable relation.
std::string analyzer_outputs(const std::string& spec) {
  const AnalysisConfig config{.max_instances = 20000};
  const auto fixture = analysis::make_fixture(spec);
  const topo::Topology& topology = *fixture.topology;
  std::ostringstream out;
  for (const Algorithm a : analysis::verifiable_algorithms(fixture)) {
    const Scenario s = analysis::make_scenario(fixture, a);
    const DeadlockReport d = analysis::analyze_deadlock(s, config);
    const InvariantReport inv = analysis::check_invariants(s, config);
    out << s.name << ": " << d.instances_analyzed << ' ' << d.virtual_channels << ' '
        << d.dependencies << ' ' << d.deadlock_free() << '\n'
        << witness_text(d.witness, topology) << "invariants " << inv.instances_checked << ' '
        << inv.violations << ' ' << inv.samples.size() << '\n';
  }
  for (const std::string& name : analysis::verifiable_relations(fixture)) {
    const analysis::RelationReport r =
        analysis::analyze_relation(analysis::make_relation(fixture, name), config);
    const analysis::EscapeReport& e = r.escape;
    out << name << ": " << r.instances_analyzed << ' ' << r.worm_states << ' '
        << r.virtual_channels << ' ' << r.dependencies << ' ' << r.stuck_states << ' '
        << r.cdg_acyclic << ' ' << r.certified() << "\nescape " << e.checked << ' '
        << e.complete << ' ' << e.acyclic << ' ' << e.escape_channels << ' '
        << e.extended_dependencies << '\n';
    for (const std::string& failure : e.failures) out << "  " << failure << '\n';
    out << witness_text(r.witness, topology);
  }
  return out.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

// The analyzer's exact outputs on the five CI topologies (karymesh:4x3
// stride-sampled to 20 000 instances), hashed.  A change to how the
// analyzer stores or searches its graphs must leave every hash alone: a
// moved hash is a changed verdict, count or witness.
TEST(AnalysisPin, OutputsOnCiTopologiesAreUnchanged) {
  const struct {
    const char* spec;
    std::uint64_t hash;
  } pinned[] = {
      {"mesh:5x4", 3941119899468419255ull},
      {"cube:4", 15003758181895434926ull},
      {"mesh3:3x3x3", 1505350078474888886ull},
      {"kary:4x2", 2138489927215593843ull},
      {"karymesh:4x3", 8586773627618806757ull},
  };
  for (const auto& p : pinned) {
    const std::string text = analyzer_outputs(p.spec);
    EXPECT_EQ(fnv1a(text), p.hash) << p.spec << " outputs:\n" << text;
  }
}

// FNV-1a over a stream of integers, each fed as its eight bytes.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// Every enumerated instance, every field of its route, and every edge of
// the multicast CDG over the same instances with its tags in order.
std::uint64_t routes_and_edges_hash(const analysis::Fixture& fixture, Algorithm algorithm,
                                    const std::vector<MulticastRequest>& instances) {
  const Scenario s = analysis::make_scenario(fixture, algorithm);
  Fnv f;
  for (const MulticastRequest& r : instances) {
    f.add(r.source);
    f.add(r.destinations.size());
    for (const NodeId d : r.destinations) f.add(d);
    MulticastRoute route;
    try {
      route = s.route(r);
    } catch (const std::exception&) {
      f.add(~std::uint64_t{0});
      continue;
    }
    f.add(route.source);
    f.add(route.paths.size());
    for (const mcast::PathRoute& p : route.paths) {
      f.add(p.channel_class);
      f.add(p.nodes.size());
      for (const NodeId v : p.nodes) f.add(v);
      f.add(p.delivery_hops.size());
      for (const std::uint32_t h : p.delivery_hops) f.add(h);
    }
    f.add(route.trees.size());
    for (const TreeRoute& t : route.trees) {
      f.add(t.source);
      f.add(t.channel_class);
      f.add(t.links.size());
      for (const TreeRoute::Link& l : t.links) {
        f.add(l.from);
        f.add(l.to);
        f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(l.parent)));
        f.add(l.depth);
      }
      f.add(t.delivery_links.size());
      for (const std::uint32_t l : t.delivery_links) f.add(l);
    }
  }
  const cdg::ChannelGraph g = analysis::build_multicast_cdg(s, instances);
  f.add(g.num_channels());
  for (ChannelId c = 0; c < g.num_channels(); ++c) {
    f.add(g.successors(c).size());
    for (const ChannelId d : g.successors(c)) {
      const auto tags = g.edge_tags(c, d);
      f.add(d);
      f.add(tags.size());
      for (const cdg::EdgeTag t : tags) f.add(t);
    }
  }
  return f.value();
}

// The instances, routes and CDG edge tags behind every deadlock verdict, on
// the five CI topologies and verify_mesh's mesh:8x8, at verify_mesh's
// 20 000-instance budget.  Every binomial-broadcast instance from one
// source of cube:4 routes the same tree.  A moved hash is a changed
// enumeration, route, dependency or tag.
TEST(AnalysisPin, RoutesAndEdgeTagsAreUnchanged) {
  const struct {
    const char* spec;
    Algorithm algorithm;
    std::uint64_t hash;
  } pinned[] = {
      {"mesh:5x4", Algorithm::kXFirstMT, 2561305810755722073ull},
      {"mesh:5x4", Algorithm::kDCXFirstTree, 2068612552897215797ull},
      {"mesh:5x4", Algorithm::kDualPath, 15351910154297732785ull},
      {"mesh:5x4", Algorithm::kMultiPath, 16647345083626596442ull},
      {"mesh:5x4", Algorithm::kFixedPath, 6057363259314743854ull},
      {"cube:4", Algorithm::kBinomialBroadcast, 7100765133167144989ull},
      {"cube:4", Algorithm::kEcubeMT, 13123834543978059125ull},
      {"cube:4", Algorithm::kDualPath, 12529352120258374910ull},
      {"cube:4", Algorithm::kMultiPath, 12550093725016068397ull},
      {"cube:4", Algorithm::kFixedPath, 15777491023505017565ull},
      {"mesh3:3x3x3", Algorithm::kDualPath, 10493957663181335813ull},
      {"mesh3:3x3x3", Algorithm::kMultiPath, 11846242909910314073ull},
      {"mesh3:3x3x3", Algorithm::kFixedPath, 10323992475573347418ull},
      {"kary:4x2", Algorithm::kDualPath, 14236857914909075689ull},
      {"kary:4x2", Algorithm::kMultiPath, 4600046304193696385ull},
      {"kary:4x2", Algorithm::kFixedPath, 14747727090640436669ull},
      {"karymesh:4x3", Algorithm::kDualPath, 9305648085136092291ull},
      {"karymesh:4x3", Algorithm::kMultiPath, 15749276200600838591ull},
      {"karymesh:4x3", Algorithm::kFixedPath, 1388171330841696967ull},
      {"mesh:8x8", Algorithm::kXFirstMT, 14378210179991925337ull},
      {"mesh:8x8", Algorithm::kDCXFirstTree, 4747312386318027630ull},
      {"mesh:8x8", Algorithm::kDualPath, 2017423556297248229ull},
      {"mesh:8x8", Algorithm::kMultiPath, 4722390398111378285ull},
      {"mesh:8x8", Algorithm::kFixedPath, 3898168508981990118ull},
  };
  const AnalysisConfig config{.max_instances = 20000};
  std::string spec;
  std::optional<analysis::Fixture> fixture;
  std::vector<MulticastRequest> instances;
  for (const auto& p : pinned) {
    if (spec != p.spec) {
      spec = p.spec;
      fixture.emplace(analysis::make_fixture(spec));
      instances = analysis::enumerate_instances(*fixture->topology, config.max_set_size,
                                                config.max_instances);
    }
    EXPECT_EQ(routes_and_edges_hash(*fixture, p.algorithm, instances), p.hash)
        << p.spec << ' ' << mcast::algorithm_name(p.algorithm);
  }
}

}  // namespace
