// Heap-allocation budgets of the send paths (routing, destination sampling,
// channel hand-over, steady-state open-loop traffic, the reliable
// multicast service and group sends) and of the static analyzer (relation
// exploration, the multicast CDG build, routing each enumerated instance
// and the invariant checks).  This executable replaces the
// global operator new/delete with counting versions (allocations and bytes
// requested), so the counts cover every allocation in the process (the
// library's and the standard library's); other test executables are
// unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "analysis/instances.hpp"
#include "analysis/invariants.hpp"
#include "analysis/mcdg.hpp"
#include "analysis/relation.hpp"
#include "analysis/scenario.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "fault/fault_router.hpp"
#include "service/group_service.hpp"
#include "service/multicast_service.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/channel_pool.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  count(size);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
std::uint64_t allocated_bytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace mcnet;
using topo::NodeId;

TEST(AllocBudget, DualPathMeshRouteOnCleanRequests) {
  // One route: the path vector and each path's node and delivery vectors
  // (the two side lists are per-thread scratch).
  const topo::Mesh2D mesh(8, 8);
  const auto router = mcast::make_router(mesh, mcast::Algorithm::kDualPath, 2);
  evsim::Rng rng(3);
  std::vector<mcast::MulticastRequest> requests;
  for (int i = 0; i < 500; ++i) {
    const NodeId source = rng.uniform_int(0, mesh.num_nodes() - 1);
    requests.push_back({source, rng.sample_destinations(mesh.num_nodes(), source, 10)});
  }
  std::uint64_t traffic = router->route(requests.front()).traffic();  // thread-local set-up
  const std::uint64_t before = allocations();
  for (const mcast::MulticastRequest& request : requests) {
    traffic += router->route(request).traffic();
  }
  const double per_request =
      static_cast<double>(allocations() - before) / static_cast<double>(requests.size());
  EXPECT_GT(traffic, 0u);
  EXPECT_LE(per_request, 5.0);
}

TEST(AllocBudget, SampleDestinationsAllocatesOnlyItsResult) {
  evsim::Rng rng(5);
  (void)rng.sample_destinations(64, 0, 10);  // thread-local set-up
  for (NodeId source = 0; source < 64; ++source) {
    const std::uint64_t before = allocations();
    const std::vector<NodeId> dests = rng.sample_destinations(64, source, 10);
    EXPECT_EQ(allocations() - before, 1u) << "source " << source;
    EXPECT_EQ(dests.size(), 10u);
  }
}

TEST(AllocBudget, ChannelReleaseToAQueuedWaiterDoesNotAllocate) {
  for (const worm::Arbitration arbitration :
       {worm::Arbitration::kFcfs, worm::Arbitration::kOldestFirst,
        worm::Arbitration::kRandom}) {
    worm::ChannelPool pool(4, 1, arbitration,
                           [](std::uint32_t worm_id) { return static_cast<double>(worm_id); });
    ASSERT_TRUE(pool.acquire(2, {1, 0, worm::kAnyCopy}).has_value());
    ASSERT_FALSE(pool.acquire(2, {2, 0, worm::kAnyCopy}).has_value());
    ASSERT_FALSE(pool.acquire(2, {3, 0, worm::kAnyCopy}).has_value());
    const std::uint64_t before = allocations();
    const auto grant = pool.release(2, 0);
    EXPECT_EQ(allocations() - before, 0u) << static_cast<int>(arbitration);
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(pool.holder(2, 0), grant->first.worm_id);
  }
}

TEST(AllocBudget, SteadyStateDualPathTrafficPerMessage) {
  // The Fig 7.8 load point on the bare dual-path router: per message, the
  // sampled destinations, one route and its worm specs; the network and
  // the kernel recycle their own storage.
  const topo::Mesh2D mesh(8, 8);
  const auto router = mcast::make_router(mesh, mcast::Algorithm::kDualPath, 2);
  evsim::Scheduler sched;
  worm::Network net(mesh, {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 2},
                    sched);
  worm::TrafficDriver traffic(
      sched, net, {.mean_interarrival_s = 150e-6, .avg_destinations = 10, .seed = 78}, *router);
  traffic.start();
  sched.run_until(0.020);  // warm-up: buffers and queues reach their working size
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t messages_before = net.messages_injected();
  sched.run_until(0.050);
  const std::uint64_t messages = net.messages_injected() - messages_before;
  const std::uint64_t allocs = allocations() - allocs_before;
  traffic.stop();
  sched.run();
  ASSERT_GT(messages, 1000u);
  EXPECT_TRUE(net.idle());
  EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(messages), 13.0)
      << allocs << " allocations for " << messages << " messages";
}

TEST(AllocBudget, ReliableMulticastPerSend) {
  // multicast_reliable on a healthy mesh behind the bare fault-aware
  // dual-path router: per send, the operation and its outcome list, one
  // attempt's route, specs and track, its callback entry and the report.
  // The byte budget also catches an eagerly seeded jitter engine, which
  // lives inside the operation and so adds bytes but no allocation.
  const topo::Mesh2D mesh(8, 8);
  const fault::FaultAwareRouter router(mcast::make_router(mesh, mcast::Algorithm::kDualPath, 1),
                                       std::make_shared<fault::FaultState>(mesh));
  evsim::Scheduler sched;
  svc::MulticastService service(router, worm::WormholeParams{}, sched);
  evsim::Rng rng(16);
  std::vector<mcast::MulticastRequest> requests;
  for (int i = 0; i < 2000; ++i) {
    const NodeId source = rng.uniform_int(0, mesh.num_nodes() - 1);
    requests.push_back({source, rng.sample_destinations(mesh.num_nodes(), source, 8)});
  }
  std::size_t reports = 0;
  const auto on_report = [&reports](const svc::DeliveryReport&) { ++reports; };
  service.multicast_reliable(requests.front(), on_report);  // warm-up
  sched.run();

  std::size_t next = 1;
  const std::function<void()> send = [&] {
    service.multicast_reliable(requests[next], on_report);
    if (++next < requests.size()) sched.schedule_in(20e-6, [&send] { send(); });
  };
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t bytes_before = allocated_bytes();
  sched.schedule_in(20e-6, [&send] { send(); });
  sched.run();
  const auto sends = static_cast<double>(requests.size() - 1);
  const double allocs = static_cast<double>(allocations() - allocs_before) / sends;
  const double bytes = static_cast<double>(allocated_bytes() - bytes_before) / sends;
  ASSERT_EQ(reports, requests.size());
  EXPECT_TRUE(service.network().idle());
  EXPECT_LE(allocs, 24.0) << "allocations per send";
  EXPECT_LE(bytes, 3000.0) << "bytes per send";
}

TEST(AllocBudget, GroupSendPerSend) {
  // Full-group sends over GroupService, 16 members on 8x8 with one
  // delivery hook (as coll::Collective registers) and the heartbeat and
  // detector loops stopped: per send, the pending message and its owed
  // set, the reliable multicast below it, and nothing per in-order
  // delivery -- hook dispatch walks the hook table in place.
  const topo::Mesh2D mesh(8, 8);
  const fault::FaultAwareRouter router(mcast::make_router(mesh, mcast::Algorithm::kDualPath, 1),
                                       std::make_shared<fault::FaultState>(mesh));
  evsim::Scheduler sched;
  svc::MulticastService service(router, worm::WormholeParams{}, sched);
  svc::GroupService groups(service);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < 64; n += 4) members.push_back(n);
  const svc::GroupId gid = groups.create_group(members);
  groups.stop();
  std::uint64_t hooked = 0;
  groups.add_delivery_hook(
      [&hooked](svc::GroupId, NodeId, NodeId, svc::SeqNum, svc::ViewId) { ++hooked; });
  groups.send(gid, members.front());  // warm-up: the view announcement and one send
  sched.run();

  constexpr int kSends = 1000;
  int next = 0;
  const std::function<void()> send = [&] {
    groups.send(gid, members[static_cast<std::size_t>(next) % members.size()]);
    if (++next < kSends) sched.schedule_in(20e-6, [&send] { send(); });
  };
  const std::uint64_t hooked_before = hooked;
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t bytes_before = allocated_bytes();
  sched.schedule_in(20e-6, [&send] { send(); });
  sched.run();
  const double allocs = static_cast<double>(allocations() - allocs_before) / kSends;
  const double bytes = static_cast<double>(allocated_bytes() - bytes_before) / kSends;
  ASSERT_EQ(hooked - hooked_before, static_cast<std::uint64_t>(kSends) * (members.size() - 1));
  EXPECT_TRUE(service.network().idle());
  EXPECT_LE(allocs, 34.0) << "allocations per send";
  EXPECT_LE(bytes, 5000.0) << "bytes per send";
}

// verify_mesh's analysis budget: mesh:8x8 stride-sampled to 20 000 instances.
const analysis::AnalysisConfig kMeshAnalysis{.max_instances = 20000};

TEST(AllocBudget, RelationExplorationPerWormState) {
  // adaptive-dual-path over 218 996 worm states: per state, little beyond
  // the enumeration and the relation's own message preparation.  Worm
  // graphs are explored into reused flat storage.
  const analysis::Fixture fixture = analysis::make_fixture("mesh:8x8");
  const analysis::RoutingRelation relation =
      analysis::make_relation(fixture, "adaptive-dual-path");
  const std::uint64_t before = allocations();
  const analysis::RelationReport report = analysis::analyze_relation(relation, kMeshAnalysis);
  const std::uint64_t allocs = allocations() - before;
  ASSERT_TRUE(report.certified());
  ASSERT_GT(report.worm_states, 0u);
  // 13.1 per state with a hash map, a successor vector and an incoming
  // channel vector per explored state.
  EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(report.worm_states), 1.0)
      << allocs << " allocations for " << report.worm_states << " worm states";
}

TEST(AllocBudget, MulticastCdgBuildBeyondRouting) {
  // Per instance, what build_multicast_cdg allocates beyond routing the
  // same instances: tree closures and link channels live in reused
  // scratch, and edge tags inline in the graph.
  const analysis::Fixture fixture = analysis::make_fixture("mesh:8x8");
  const std::vector<mcast::MulticastRequest> instances = analysis::enumerate_instances(
      *fixture.topology, kMeshAnalysis.max_set_size, kMeshAnalysis.max_instances);
  for (const mcast::Algorithm algorithm :
       {mcast::Algorithm::kXFirstMT, mcast::Algorithm::kDualPath}) {
    const analysis::Scenario scenario = analysis::make_scenario(fixture, algorithm);
    std::uint64_t traffic = scenario.route(instances.front()).traffic();  // thread-local set-up
    std::uint64_t before = allocations();
    for (const mcast::MulticastRequest& request : instances) {
      traffic += scenario.route(request).traffic();
    }
    const auto routing = static_cast<double>(allocations() - before);
    before = allocations();
    const cdg::ChannelGraph graph = analysis::build_multicast_cdg(scenario, instances);
    const auto building = static_cast<double>(allocations() - before);
    EXPECT_GT(traffic, 0u);
    EXPECT_GT(graph.num_dependencies(), 0u);
    // 14.45 (X-first-MT) and 0.10 (dual-path) with a closure bit set per
    // tree link, a link-channel vector per tree and a tag vector per edge.
    EXPECT_LE((building - routing) / static_cast<double>(instances.size()), 0.5)
        << scenario.name << ": " << building << " allocations building, " << routing
        << " routing " << instances.size() << " instances";
  }
}

// Heap blocks a route owns: its path and tree vectors and each component's
// node or link vector and delivery vector.
std::uint64_t owned_vectors(const mcast::MulticastRoute& route) {
  const auto held = [](const auto& v) -> std::uint64_t { return v.capacity() != 0 ? 1 : 0; };
  std::uint64_t n = held(route.paths) + held(route.trees);
  for (const mcast::PathRoute& p : route.paths) n += held(p.nodes) + held(p.delivery_hops);
  for (const mcast::TreeRoute& t : route.trees) n += held(t.links) + held(t.delivery_links);
  return n;
}

TEST(AllocBudget, AnalyzerRoutingPerInstance) {
  // Routing an analyzer instance allocates the route's own vectors and
  // nothing else: destination lists, side lists and worm targets live in
  // reused thread-local scratch, and every vector is sized before it fills.
  const analysis::Fixture fixture = analysis::make_fixture("mesh:8x8");
  const std::vector<mcast::MulticastRequest> instances = analysis::enumerate_instances(
      *fixture.topology, kMeshAnalysis.max_set_size, kMeshAnalysis.max_instances);
  for (const mcast::Algorithm algorithm : analysis::verifiable_algorithms(fixture)) {
    const analysis::Scenario scenario = analysis::make_scenario(fixture, algorithm);
    for (const mcast::MulticastRequest& request : instances) {
      (void)scenario.route(request);  // thread-local scratch reaches its size
    }
    std::uint64_t owned = 0;
    const std::uint64_t before = allocations();
    for (const mcast::MulticastRequest& request : instances) {
      owned += owned_vectors(scenario.route(request));
    }
    const std::uint64_t allocs = allocations() - before;
    const auto per_instance = [&](std::uint64_t n) {
      return static_cast<double>(n) / static_cast<double>(instances.size());
    };
    // 17.8 (X-first-MT), 21.3 (dc-X-first-tree), 12.7 (multi-path), 12.1
    // (fixed-path) and 4.9 (dual-path) with fresh vectors at every tree hop,
    // heap side lists and worm targets, and unreserved node lists.
    EXPECT_LE(allocs, owned) << scenario.name << ": " << per_instance(allocs)
                             << " allocations per instance for " << per_instance(owned)
                             << " owned vectors";
  }
}

TEST(AllocBudget, InvariantChecksBeyondRouting) {
  // Per instance, what check_invariants allocates beyond enumerating and
  // routing the same instances: the structural and capacity checks mark
  // nodes and channels in reused epoch-stamped arrays.
  const analysis::Fixture fixture = analysis::make_fixture("mesh:8x8");
  for (const mcast::Algorithm algorithm : analysis::verifiable_algorithms(fixture)) {
    const analysis::Scenario scenario = analysis::make_scenario(fixture, algorithm);
    (void)analysis::check_invariants(scenario, kMeshAnalysis);  // thread-local set-up
    std::uint64_t before = allocations();
    const std::vector<mcast::MulticastRequest> instances = analysis::enumerate_instances(
        *fixture.topology, kMeshAnalysis.max_set_size, kMeshAnalysis.max_instances);
    std::uint64_t traffic = 0;
    for (const mcast::MulticastRequest& request : instances) {
      traffic += scenario.route(request).traffic();
    }
    const auto routing = static_cast<double>(allocations() - before);
    before = allocations();
    const analysis::InvariantReport report =
        analysis::check_invariants(scenario, kMeshAnalysis);
    const auto checking = static_cast<double>(allocations() - before);
    EXPECT_GT(traffic, 0u);
    ASSERT_TRUE(report.ok()) << scenario.name;
    // About 5 with a hash map of the destinations per route and a sorted
    // channel vector per worm.
    EXPECT_LE((checking - routing) / static_cast<double>(instances.size()), 0.1)
        << scenario.name << ": " << checking << " allocations checking, " << routing
        << " enumerating and routing " << instances.size() << " instances";
  }
}

}  // namespace
