// Fault subsystem: FaultState semantics, deterministic FaultPlan sampling,
// scheduler-driven injection, failure-aware routing and its cache
// invalidation, plus a seeded fuzz pass asserting the two core invariants:
// routes never traverse failed hardware, and unreachable detection matches
// BFS reachability exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <thread>

#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_router.hpp"
#include "fault/fault_state.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/network.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

TEST(FaultState, EpochAdvancesOnChangeOnly) {
  const topo::Mesh2D mesh(3, 3);
  fault::FaultState faults(mesh);
  EXPECT_TRUE(faults.healthy());
  EXPECT_EQ(faults.epoch(), 0u);

  const topo::ChannelId c = mesh.channel(0, 1);
  EXPECT_TRUE(faults.fail_channel(c));
  EXPECT_EQ(faults.epoch(), 1u);
  EXPECT_FALSE(faults.fail_channel(c));  // idempotent: no epoch bump
  EXPECT_EQ(faults.epoch(), 1u);
  EXPECT_TRUE(faults.channel_failed(c));
  EXPECT_FALSE(faults.channel_usable(c));
  EXPECT_FALSE(faults.healthy());

  EXPECT_TRUE(faults.recover_channel(c));
  EXPECT_EQ(faults.epoch(), 2u);
  EXPECT_FALSE(faults.recover_channel(c));
  EXPECT_TRUE(faults.healthy());
}

TEST(FaultState, NodeFailureDisablesIncidentChannelsExactly) {
  const topo::Mesh2D mesh(3, 3);
  fault::FaultState faults(mesh);
  const topo::NodeId centre = 4;  // the middle of the 3x3 mesh
  EXPECT_TRUE(faults.fail_node(centre));
  for (const topo::NodeId v : mesh.neighbors(centre)) {
    EXPECT_FALSE(faults.channel_usable(mesh.channel(centre, v)));
    EXPECT_FALSE(faults.channel_usable(mesh.channel(v, centre)));
    // The channels themselves are not marked failed: recovery is exact.
    EXPECT_FALSE(faults.channel_failed(mesh.channel(centre, v)));
  }
  EXPECT_TRUE(faults.channel_usable(mesh.channel(0, 1)));
  EXPECT_TRUE(faults.recover_node(centre));
  EXPECT_TRUE(faults.healthy());
  for (const topo::NodeId v : mesh.neighbors(centre)) {
    EXPECT_TRUE(faults.channel_usable(mesh.channel(centre, v)));
  }
}

TEST(FaultState, ReachabilityRespectsCuts) {
  // 3x3 mesh: isolate node 0 by cutting both its links.
  const topo::Mesh2D mesh(3, 3);
  fault::FaultState faults(mesh);
  faults.fail_channel(mesh.channel(0, 1));
  faults.fail_channel(mesh.channel(1, 0));
  faults.fail_channel(mesh.channel(0, 3));
  faults.fail_channel(mesh.channel(3, 0));

  const auto from1 = faults.reachable_from(1);
  EXPECT_EQ(from1[0], 0);
  for (topo::NodeId n = 1; n < 9; ++n) EXPECT_NE(from1[n], 0) << "node " << n;

  const auto from0 = faults.reachable_from(0);
  EXPECT_NE(from0[0], 0);  // reaches itself
  for (topo::NodeId n = 1; n < 9; ++n) EXPECT_EQ(from0[n], 0) << "node " << n;

  EXPECT_EQ(faults.unreachable_destinations(1, {0, 2, 5}),
            (std::vector<topo::NodeId>{0}));
}

TEST(FaultState, FailedSourceReachesNothing) {
  const topo::Mesh2D mesh(3, 3);
  fault::FaultState faults(mesh);
  faults.fail_node(2);
  const auto seen = faults.reachable_from(2);
  for (topo::NodeId n = 0; n < 9; ++n) EXPECT_EQ(seen[n], 0);
}

TEST(FaultPlan, BuildersAndStableSort) {
  const topo::Mesh2D mesh(2, 2);
  fault::FaultPlan plan;
  plan.fail_link_at(2e-6, mesh, 0, 1)
      .recover_link_at(5e-6, mesh, 0, 1)
      .fail_node_at(1e-6, 3);
  plan.sort();
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events.front().kind, fault::FaultKind::kNodeFail);
  EXPECT_LE(plan.events[1].time, plan.events[2].time);
  // Same time-stamp events keep builder order (both directions of the link).
  EXPECT_EQ(plan.events[1].id, mesh.channel(0, 1));
  EXPECT_EQ(plan.events[2].id, mesh.channel(1, 0));
  EXPECT_THROW(plan.fail_link_at(0.0, mesh, 0, 3), std::invalid_argument);
}

TEST(FaultPlan, RandomLinkFailuresAreSeedDeterministic) {
  const topo::Mesh2D mesh(4, 4);
  const auto a = fault::FaultPlan::random_link_failures(mesh, 0.25, 0.0, 1e-3, 42);
  const auto b = fault::FaultPlan::random_link_failures(mesh, 0.25, 0.0, 1e-3, 42);
  const auto c = fault::FaultPlan::random_link_failures(mesh, 0.25, 0.0, 1e-3, 43);
  EXPECT_EQ(a.events, b.events);
  EXPECT_NE(a.events, c.events);

  // A 4x4 mesh has 24 undirected links; 25% rounds down to 6 links = 12
  // directed channel failures, each within the window.
  EXPECT_EQ(a.events.size(), 12u);
  std::set<topo::ChannelId> channels;
  for (const auto& e : a.events) {
    EXPECT_EQ(e.kind, fault::FaultKind::kChannelFail);
    EXPECT_GE(e.time, 0.0);
    EXPECT_LT(e.time, 1e-3);
    channels.insert(e.id);
  }
  EXPECT_EQ(channels.size(), 12u);  // sampled without replacement
  EXPECT_THROW(fault::FaultPlan::random_link_failures(mesh, 1.5, 0.0, 1.0, 1),
               std::invalid_argument);
}

TEST(FaultInjector, AppliesPlanAtScheduledTimes) {
  const topo::Mesh2D mesh(3, 3);
  evsim::Scheduler sched;
  worm::Network network(mesh, worm::WormholeParams{}, sched);

  fault::FaultPlan plan;
  plan.fail_link_at(1e-6, mesh, 0, 1).recover_link_at(3e-6, mesh, 0, 1);
  fault::schedule_fault_plan(network, sched, plan);

  const topo::ChannelId c = mesh.channel(0, 1);
  bool checked_mid = false;
  sched.schedule_at(2e-6, [&] {
    checked_mid = true;
    EXPECT_TRUE(network.faults().channel_failed(c));
  });
  sched.run();
  EXPECT_TRUE(checked_mid);
  EXPECT_FALSE(network.faults().channel_failed(c));
  EXPECT_TRUE(network.faults().healthy());
  EXPECT_EQ(network.faults().epoch(), 4u);  // two fails + two recovers
}

TEST(FaultRouter, HealthyPassThroughMatchesInner) {
  const topo::Mesh2D mesh(4, 4);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);

  const mcast::MulticastRequest req{0, {5, 10, 15}};
  const auto result = router->route_with_faults(req);
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.unreachable.empty());
  EXPECT_EQ(result.route, plain->route(req));
  mcast::verify_route(mesh, req, result.route);
}

TEST(FaultRouter, RoutesAroundFailedLink) {
  const topo::Mesh2D mesh(4, 4);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults);

  // Cut the first hop the dual-path route would take out of node 0.
  faults->fail_channel(mesh.channel(0, 1));
  faults->fail_channel(mesh.channel(1, 0));

  const mcast::MulticastRequest req{0, {1, 5, 15}};
  const auto result = router->route_with_faults(req);
  EXPECT_TRUE(result.unreachable.empty());  // mesh is still connected
  EXPECT_TRUE(router->route_usable(result.route));
  mcast::verify_route(mesh, req, result.route);
}

TEST(FaultRouter, PartitionReportedNotRouted) {
  const topo::Mesh2D mesh(3, 3);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kSortedMP, faults);

  // Isolate node 8 (corner: links to 5 and 7).
  for (const topo::NodeId v : mesh.neighbors(8)) {
    faults->fail_channel(mesh.channel(8, v));
    faults->fail_channel(mesh.channel(v, 8));
  }

  const auto result = router->route_with_faults({0, {4, 8}});
  EXPECT_EQ(result.unreachable, (std::vector<topo::NodeId>{8}));
  EXPECT_TRUE(router->route_usable(result.route));
  mcast::verify_route(mesh, {0, {4}}, result.route);

  // The plain Router interface has no partial-delivery channel: it throws.
  EXPECT_THROW((void)router->route({0, {4, 8}}), std::runtime_error);
}

TEST(FaultRouter, EpochChangeInvalidatesCache) {
  const topo::Mesh2D mesh(4, 4);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults);
  ASSERT_NE(router->cache(), nullptr);

  const mcast::MulticastRequest req{0, {5, 10}};
  (void)router->route(req);
  (void)router->route(req);
  EXPECT_EQ(router->cache()->stats().hits, 1u);
  EXPECT_GE(router->cache()->size(), 1u);

  // Any epoch change (even an irrelevant link) must flush the cache: the
  // cheap conservative rule that guarantees no stale route survives.
  faults->fail_channel(mesh.channel(15, 14));
  const auto result = router->route_with_faults(req);
  EXPECT_TRUE(router->route_usable(result.route));
  const auto stats = router->cache()->stats();
  EXPECT_EQ(stats.hits, 1u);  // no new hit: the entry was gone
  EXPECT_EQ(stats.misses, 2u);
}

TEST(FaultRouter, CacheStatsSnapshotIsConsistentUnderThreads) {
  // stats() must return one point-in-time snapshot: with every route() call
  // being a hit or a miss, hits + misses can never exceed the calls issued,
  // and afterwards must equal them exactly.  Run under TSan this also
  // exercises the counters-under-shard-lock claim.
  const topo::Mesh2D mesh(4, 4);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults);

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 400;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      evsim::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kCallsPerThread; ++i) {
        const topo::NodeId src = rng.uniform_int(0, 15);
        (void)router->route({src, rng.sample_destinations(16, src, 3)});
      }
    });
  }
  workers.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < 200; ++i) {
      const auto s = router->cache()->stats();
      EXPECT_LE(s.hits + s.misses,
                static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  const auto s = router->cache()->stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
}

// Independent BFS oracle for the fuzz pass (deliberately not reusing
// FaultState::reachable_from).
std::vector<std::uint8_t> bfs_oracle(const topo::Topology& t,
                                     const fault::FaultState& faults, topo::NodeId src) {
  std::vector<std::uint8_t> seen(t.num_nodes(), 0);
  if (faults.node_failed(src)) return seen;
  seen[src] = 1;
  std::deque<topo::NodeId> q{src};
  while (!q.empty()) {
    const topo::NodeId u = q.front();
    q.pop_front();
    for (const topo::NodeId v : t.neighbors(u)) {
      if (seen[v] || faults.node_failed(v) || faults.channel_failed(t.channel(u, v))) {
        continue;
      }
      seen[v] = 1;
      q.push_back(v);
    }
  }
  return seen;
}

void fuzz_topology(const topo::Topology& t, Algorithm algo, std::uint64_t seed) {
  evsim::Rng rng(seed);
  auto faults = std::make_shared<fault::FaultState>(t);
  const auto router = fault::make_fault_aware_router(t, algo, faults);
  const auto links = fault::undirected_links(t);

  for (int round = 0; round < 60; ++round) {
    // Mutate the failure set: mostly channel flips, occasionally node flips.
    for (int m = rng.uniform_int(0, 3); m-- > 0;) {
      if (rng.uniform(0.0, 1.0) < 0.8) {
        const auto [fwd, rev] = links[rng.uniform_int(
            0, static_cast<std::uint32_t>(links.size() - 1))];
        if (rng.uniform(0.0, 1.0) < 0.6) {
          faults->fail_channel(fwd);
          faults->fail_channel(rev);
        } else {
          faults->recover_channel(fwd);
          faults->recover_channel(rev);
        }
      } else {
        const topo::NodeId n = rng.uniform_int(0, t.num_nodes() - 1);
        if (rng.uniform(0.0, 1.0) < 0.5) {
          faults->fail_node(n);
        } else {
          faults->recover_node(n);
        }
      }
    }

    topo::NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
    if (faults->node_failed(src)) continue;  // a dead node cannot send
    const std::uint32_t k = rng.uniform_int(1, std::min(6u, t.num_nodes() - 1));
    const mcast::MulticastRequest req{src, rng.sample_destinations(t.num_nodes(), src, k)};

    const auto result = router->route_with_faults(req);

    // Invariant (a): the produced route never touches failed hardware.
    EXPECT_TRUE(router->route_usable(result.route))
        << "round " << round << " seed " << seed;

    // Invariant (b): the unreachable set is exactly the BFS complement.
    const auto oracle = bfs_oracle(t, *faults, src);
    std::vector<topo::NodeId> expected;
    for (const topo::NodeId d : req.destinations) {
      if (!oracle[d]) expected.push_back(d);
    }
    EXPECT_EQ(result.unreachable, expected) << "round " << round << " seed " << seed;

    // And the route delivers exactly the reachable destinations.
    std::vector<topo::NodeId> reachable;
    for (const topo::NodeId d : req.destinations) {
      if (oracle[d]) reachable.push_back(d);
    }
    if (!reachable.empty()) {
      mcast::verify_route(t, {src, reachable}, result.route);
    } else {
      EXPECT_EQ(result.route.num_deliveries(), 0u);
    }
  }
}

TEST(FaultFuzz, MeshDualPathNeverRoutesOverFailures) {
  fuzz_topology(topo::Mesh2D(5, 4), Algorithm::kDualPath, 7);
  fuzz_topology(topo::Mesh2D(4, 4), Algorithm::kDualPath, 21);
}

TEST(FaultFuzz, MeshGreedyTreeNeverRoutesOverFailures) {
  fuzz_topology(topo::Mesh2D(4, 4), Algorithm::kGreedyST, 11);
}

TEST(FaultFuzz, HypercubeNeverRoutesOverFailures) {
  fuzz_topology(topo::Hypercube(4), Algorithm::kSortedMP, 13);
  fuzz_topology(topo::Hypercube(3), Algorithm::kLenTree, 17);
}

}  // namespace
