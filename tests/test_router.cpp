// The polymorphic Router layer and the CachingRouter decorator: make_router
// dispatches each algorithm to its own routing function on every labeled
// topology, routes are valid, the deadlock-freedom claims hold in the
// simulator, cached routes are bit-identical under repeated and concurrent
// access, eviction is bounded, and the service / dynamic-experiment entry
// points route through a Router.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "cdg/analyzers.hpp"
#include "core/baselines.hpp"
#include "core/dc_xfirst_tree.hpp"
#include "core/divided_greedy_mt.hpp"
#include "core/dual_path.hpp"
#include "core/fixed_path.hpp"
#include "core/greedy_st.hpp"
#include "core/len_tree.hpp"
#include "core/multi_path.hpp"
#include "core/naive_tree.hpp"
#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "core/sorted_mp.hpp"
#include "core/xfirst_mt.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "fault/fault_router.hpp"
#include "service/multicast_service.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/kary_ncube.hpp"
#include "topology/mesh3d.hpp"
#include "wormhole/experiment.hpp"
#include "wormhole/network.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using mcast::MulticastRequest;
using topo::NodeId;

std::vector<mcast::MulticastRequest> random_requests(const topo::Topology& t,
                                                     std::uint32_t count,
                                                     std::uint32_t max_k,
                                                     std::uint64_t seed) {
  evsim::Rng rng(seed);
  std::vector<mcast::MulticastRequest> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const topo::NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, max_k);
    out.push_back({src, rng.sample_destinations(t.num_nodes(), src, k)});
  }
  return out;
}

// (a) make_router: valid routes from every algorithm, each routed by its
// own function.

TEST(RouteFactory, AllMeshAlgorithmsProduceValidRoutes) {
  const topo::Mesh2D mesh(8, 8);
  evsim::Rng rng(83);
  std::vector<std::unique_ptr<mcast::Router>> routers;
  for (const Algorithm a : {Algorithm::kMultiUnicast, Algorithm::kBroadcast,
                            Algorithm::kSortedMP, Algorithm::kSortedMC, Algorithm::kGreedyST,
                            Algorithm::kXFirstMT, Algorithm::kDividedGreedyMT,
                            Algorithm::kDualPath, Algorithm::kMultiPath,
                            Algorithm::kFixedPath, Algorithm::kDCXFirstTree}) {
    routers.push_back(mcast::make_router(mesh, a));
  }
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 20);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    for (const auto& router : routers) {
      SCOPED_TRACE(std::string(router->name()));
      verify_route(mesh, req, router->route(req));
    }
  }
}

TEST(RouteFactory, AllCubeAlgorithmsProduceValidRoutes) {
  const topo::Hypercube cube(6);
  evsim::Rng rng(89);
  std::vector<std::unique_ptr<mcast::Router>> routers;
  for (const Algorithm a : {Algorithm::kMultiUnicast, Algorithm::kBroadcast,
                            Algorithm::kSortedMP, Algorithm::kSortedMC, Algorithm::kGreedyST,
                            Algorithm::kLenTree, Algorithm::kDualPath, Algorithm::kMultiPath,
                            Algorithm::kFixedPath, Algorithm::kEcubeMT,
                            Algorithm::kBinomialBroadcast}) {
    routers.push_back(mcast::make_router(cube, a));
  }
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId src = rng.uniform_int(0, cube.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 30);
    const MulticastRequest req{src, rng.sample_destinations(cube.num_nodes(), src, k)};
    for (const auto& router : routers) {
      SCOPED_TRACE(std::string(router->name()));
      verify_route(cube, req, router->route(req));
    }
  }
}

TEST(RouteFactory, OddOddMeshHasNoCycleButOtherAlgorithmsWork) {
  const topo::Mesh2D mesh(5, 5);
  // Sorted-MP is accepted (the mesh kind supports it) but has no cycle to
  // walk, so it throws at route() time.
  const auto sorted = mcast::make_router(mesh, Algorithm::kSortedMP);
  EXPECT_THROW((void)sorted->route({0, {1}}), std::logic_error);
  const MulticastRequest req{12, {0, 24, 7}};
  verify_route(mesh, req, mcast::make_router(mesh, Algorithm::kDualPath)->route(req));
  verify_route(mesh, req, mcast::make_router(mesh, Algorithm::kGreedyST)->route(req));
}

TEST(RouteFactory, AlgorithmNamesAreUnique) {
  std::set<std::string_view> names;
  for (int a = 0; a <= static_cast<int>(Algorithm::kBinomialBroadcast); ++a) {
    EXPECT_TRUE(names.insert(mcast::algorithm_name(static_cast<Algorithm>(a))).second);
  }
}

// Fig. 7.1 / 7.3 shape as a fast statistical property: on random 1-to-k
// multicasts the heuristics beat both baselines for moderate k.
TEST(RouteFactory, HeuristicsBeatBaselinesOnAverage) {
  const topo::Mesh2D mesh(16, 16);
  const auto unicast = mcast::make_router(mesh, Algorithm::kMultiUnicast);
  const auto broadcast = mcast::make_router(mesh, Algorithm::kBroadcast);
  const auto sorted = mcast::make_router(mesh, Algorithm::kSortedMP);
  const auto steiner = mcast::make_router(mesh, Algorithm::kGreedyST);
  const auto dual_path = mcast::make_router(mesh, Algorithm::kDualPath);
  evsim::Rng rng(97);
  std::uint64_t uni = 0, bc = 0, mp = 0, st = 0, dual = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, 60)};
    uni += unicast->route(req).traffic();
    bc += broadcast->route(req).traffic();
    mp += sorted->route(req).traffic();
    st += steiner->route(req).traffic();
    dual += dual_path->route(req).traffic();
  }
  EXPECT_LT(mp, uni);
  EXPECT_LT(mp, bc);
  EXPECT_LT(st, uni);
  EXPECT_LT(st, mp);    // Steiner trees share more than a single path
  EXPECT_LT(dual, uni);
}

// The reference suite the MakeRouter.Matches*Suite tests compare against:
// each algorithm's own routing function, wired by hand with the labeling,
// Hamiltonian cycle and unicast relay the paper pairs it with on this
// topology.
mcast::MulticastRoute reference_route(const topo::Topology& t, const ham::Labeling& lab,
                                      Algorithm a, const MulticastRequest& req) {
  const auto* mesh = dynamic_cast<const topo::Mesh2D*>(&t);
  const auto* cube = dynamic_cast<const topo::Hypercube*>(&t);
  const mcast::LabelRouter label_router(t, lab);
  cdg::RoutingFunction unicast = [&label_router](NodeId cur, NodeId dst) {
    return cur == dst ? topo::kInvalidNode : label_router.next_hop(cur, dst);
  };
  if (mesh != nullptr) unicast = cdg::xfirst_routing(*mesh);
  if (cube != nullptr) unicast = cdg::ecube_routing(*cube);
  const auto cycle = [&] {
    return mesh != nullptr ? ham::mesh_comb_cycle(*mesh) : ham::hypercube_gray_cycle(*cube);
  };
  const mcast::ClosestOnPathsFn closest = [&](NodeId s, NodeId d, NodeId w) {
    return mesh != nullptr ? mesh->closest_on_shortest_paths(s, d, w)
                           : cube->closest_on_shortest_paths(s, d, w);
  };
  switch (a) {
    case Algorithm::kMultiUnicast: return mcast::multi_unicast_route(t, unicast, req);
    case Algorithm::kBroadcast: return mcast::broadcast_route(t, unicast, req);
    case Algorithm::kSortedMP: return mcast::sorted_mp_route(t, cycle(), req);
    case Algorithm::kSortedMC: return mcast::sorted_mc_route(t, cycle(), req);
    case Algorithm::kGreedyST: return mcast::greedy_st_route(t, unicast, closest, req);
    case Algorithm::kXFirstMT: return mcast::xfirst_mt_route(*mesh, req);
    case Algorithm::kDividedGreedyMT: return mcast::divided_greedy_mt_route(*mesh, req);
    case Algorithm::kLenTree: return mcast::len_tree_route(*cube, req);
    case Algorithm::kDualPath: return mcast::dual_path_route(t, lab, req);
    case Algorithm::kMultiPath: return mcast::multi_path_route(t, lab, req);
    case Algorithm::kFixedPath: return mcast::fixed_path_route(t, lab, req);
    case Algorithm::kDCXFirstTree: return mcast::dc_xfirst_tree_route(*mesh, req);
    case Algorithm::kEcubeMT: return mcast::ecube_mt_route(*cube, req);
    case Algorithm::kBinomialBroadcast: return mcast::binomial_broadcast_route(*cube, req);
  }
  throw std::logic_error("unknown algorithm");
}

const std::vector<Algorithm> kMeshAlgorithms = {
    Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kSortedMP,
    Algorithm::kSortedMC, Algorithm::kGreedyST, Algorithm::kXFirstMT,
    Algorithm::kDividedGreedyMT, Algorithm::kDualPath, Algorithm::kMultiPath,
    Algorithm::kFixedPath, Algorithm::kDCXFirstTree};
const std::vector<Algorithm> kCubeAlgorithms = {
    Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kSortedMP,
    Algorithm::kSortedMC, Algorithm::kGreedyST, Algorithm::kLenTree,
    Algorithm::kDualPath, Algorithm::kMultiPath, Algorithm::kFixedPath,
    Algorithm::kEcubeMT, Algorithm::kBinomialBroadcast};
const std::vector<Algorithm> kLabeledAlgorithms = {
    Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kDualPath,
    Algorithm::kMultiPath, Algorithm::kFixedPath};

// make_router supports exactly `supported` on `t`, in enum order, and each
// router returns its algorithm's own route on random requests.
void expect_reference_routes(const topo::Topology& t, const ham::Labeling& lab,
                             const std::vector<Algorithm>& supported, std::uint64_t seed) {
  SCOPED_TRACE(t.name());
  EXPECT_EQ(mcast::supported_algorithms(t), supported);
  const auto requests = random_requests(t, 8, std::min(16u, t.num_nodes() - 1), seed);
  for (const Algorithm a : supported) {
    SCOPED_TRACE(std::string(mcast::algorithm_name(a)));
    const auto router = mcast::make_router(t, a);
    EXPECT_EQ(router->name(), mcast::algorithm_name(a));
    EXPECT_EQ(router->algorithm(), a);
    EXPECT_EQ(&router->topology(), &t);
    for (const auto& req : requests) {
      const mcast::MulticastRoute route = router->route(req);
      EXPECT_EQ(route, reference_route(t, lab, a, req));
      verify_route(t, req, route);
    }
  }
}

TEST(MakeRouter, MatchesMeshSuiteOnEveryAlgorithm) {
  const topo::Mesh2D mesh(8, 8);
  expect_reference_routes(mesh, ham::MeshBoustrophedonLabeling(mesh), kMeshAlgorithms, 11);
}

TEST(MakeRouter, MatchesCubeSuiteOnEveryAlgorithm) {
  const topo::Hypercube cube(5);
  expect_reference_routes(cube, ham::HypercubeGrayLabeling(cube), kCubeAlgorithms, 12);
}

TEST(MakeRouter, MatchesLabeledSuiteOnMesh3DAndKAry) {
  const topo::Mesh3D mesh3(3, 3, 3);
  expect_reference_routes(mesh3, ham::MixedRadixGrayLabeling::for_mesh3d(mesh3),
                          kLabeledAlgorithms, 13);
  const topo::KAryNCube kary(4, 2);
  expect_reference_routes(kary, ham::MixedRadixGrayLabeling::for_kary(kary),
                          kLabeledAlgorithms, 14);
}

// The same check on shapes the paper's figures do not use: a non-square
// mesh, a small cube and non-cubic 3-D mesh and k-ary n-cube.
TEST(MakeRouter, RoutesWithEachAlgorithmsOwnFunction) {
  const topo::Mesh2D mesh(6, 4);
  expect_reference_routes(mesh, ham::MeshBoustrophedonLabeling(mesh), kMeshAlgorithms, 15);
  const topo::Hypercube cube(3);
  expect_reference_routes(cube, ham::HypercubeGrayLabeling(cube), kCubeAlgorithms, 16);
  const topo::Mesh3D mesh3(2, 3, 4);
  expect_reference_routes(mesh3, ham::MixedRadixGrayLabeling::for_mesh3d(mesh3),
                          kLabeledAlgorithms, 17);
  const topo::KAryNCube kary(3, 3);
  expect_reference_routes(kary, ham::MixedRadixGrayLabeling::for_kary(kary),
                          kLabeledAlgorithms, 18);
}

// One applicability table: every algorithm supported_algorithms leaves out
// is rejected when the router is built.
TEST(RouteFactory, InapplicableAlgorithmsThrow) {
  const topo::Mesh2D mesh(4, 4);
  const topo::Hypercube cube(3);
  const topo::Mesh3D mesh3(2, 2, 2);
  const topo::KAryNCube kary(3, 2);
  const topo::Topology* const topologies[] = {&mesh, &cube, &mesh3, &kary};
  for (const topo::Topology* t : topologies) {
    SCOPED_TRACE(t->name());
    const auto supported = mcast::supported_algorithms(*t);
    for (int i = 0; i <= static_cast<int>(Algorithm::kBinomialBroadcast); ++i) {
      const auto a = static_cast<Algorithm>(i);
      SCOPED_TRACE(std::string(mcast::algorithm_name(a)));
      if (std::find(supported.begin(), supported.end(), a) != supported.end()) {
        EXPECT_NO_THROW((void)mcast::make_router(*t, a));
      } else {
        EXPECT_THROW((void)mcast::make_router(*t, a), std::invalid_argument);
      }
    }
  }
}

TEST(MakeRouter, RejectsInapplicableAlgorithmsAtConstruction) {
  const topo::Mesh2D mesh(4, 4);
  EXPECT_THROW((void)mcast::make_router(mesh, Algorithm::kLenTree), std::invalid_argument);
  EXPECT_THROW((void)mcast::make_router(mesh, Algorithm::kEcubeMT), std::invalid_argument);

  const topo::Hypercube cube(3);
  EXPECT_THROW((void)mcast::make_router(cube, Algorithm::kXFirstMT), std::invalid_argument);
  EXPECT_THROW((void)mcast::make_router(cube, Algorithm::kDCXFirstTree),
               std::invalid_argument);

  const topo::Mesh3D mesh3(2, 2, 2);
  EXPECT_THROW((void)mcast::make_router(mesh3, Algorithm::kGreedyST), std::invalid_argument);
}

// Zero channel copies used to be accepted and then divide by zero when a
// tree route was converted to worm specs.
TEST(MakeRouter, RejectsZeroChannelCopies) {
  const topo::Mesh2D mesh(4, 4);
  const MulticastRequest req{5, {0, 15}};
  const auto expect_rejected = [&req](const auto& make) {
    try {
      const auto router = make();
      (void)router->specs(router->route(req));
      ADD_FAILURE() << "zero channel copies accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("copies"), std::string::npos) << e.what();
    }
  };
  for (const Algorithm a : {Algorithm::kXFirstMT, Algorithm::kDCXFirstTree}) {
    SCOPED_TRACE(std::string(mcast::algorithm_name(a)));
    expect_rejected([&] { return mcast::make_router(mesh, a, 0); });
    expect_rejected([&] { return mcast::make_caching_router(mesh, a, 0); });
    expect_rejected([&] {
      return fault::make_fault_aware_router(mesh, a, std::make_shared<fault::FaultState>(mesh),
                                            0);
    });
  }
}

TEST(MakeRouter, DeadlockFreedomFlags) {
  const topo::Mesh2D mesh(4, 4);
  EXPECT_TRUE(mcast::make_router(mesh, Algorithm::kDualPath)->deadlock_free());
  // The X-first tree is acyclic only with its quadrant subnetworks on
  // separate channel copies (Section 6.2.1).
  EXPECT_FALSE(mcast::make_router(mesh, Algorithm::kDCXFirstTree)->deadlock_free());
  EXPECT_TRUE(mcast::make_router(mesh, Algorithm::kDCXFirstTree, 2)->deadlock_free());
  EXPECT_FALSE(mcast::make_router(mesh, Algorithm::kXFirstMT)->deadlock_free());
  EXPECT_FALSE(mcast::make_router(mesh, Algorithm::kBroadcast)->deadlock_free());
}

// The router's claim pinned against the simulator: one burst of 32
// concurrent dc-X-first multicasts wedges in a cycle on one channel copy
// and drains on two.
TEST(MakeRouter, DcXFirstTreeClaimMatchesTheSimulator) {
  const topo::Mesh2D mesh(8, 8);
  for (const std::uint8_t copies : {1, 2}) {
    SCOPED_TRACE(static_cast<int>(copies));
    const auto router = mcast::make_router(mesh, Algorithm::kDCXFirstTree, copies);
    evsim::Scheduler sched;
    worm::Network net(mesh, {.flit_time = 1.0, .message_flits = 16, .channel_copies = copies},
                      sched);
    evsim::Rng rng(1);
    for (int i = 0; i < 32; ++i) {
      const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
      const std::uint32_t k = rng.uniform_int(1, 12);
      net.inject(router->build(src, rng.sample_destinations(mesh.num_nodes(), src, k)));
    }
    sched.run();
    const bool drained = net.idle() && net.messages_completed() == 32;
    EXPECT_EQ(router->deadlock_free(), drained);
    EXPECT_EQ(net.find_deadlock().empty(), drained);
    EXPECT_EQ(drained, copies == 2);
  }
}

TEST(Router, SpecsMatchWormSpecConversion) {
  // The mesh router must apply the mesh-aware (quadrant-pinning) policy.
  const topo::Mesh2D mesh(6, 6);
  const auto router = mcast::make_router(mesh, Algorithm::kDCXFirstTree, 2);
  const mcast::MulticastRequest req{7, {0, 14, 30, 35}};
  const mcast::MulticastRoute route = router->route(req);
  const auto expected = worm::make_worm_specs(mesh, route, 2);
  const auto got = router->specs(route);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t w = 0; w < got.size(); ++w) {
    ASSERT_EQ(got[w].links.size(), expected[w].links.size());
    for (std::size_t l = 0; l < got[w].links.size(); ++l) {
      EXPECT_EQ(got[w].links[l].channel, expected[w].links[l].channel);
      EXPECT_EQ(got[w].links[l].copy, expected[w].links[l].copy);
    }
    EXPECT_EQ(got[w].deliveries, expected[w].deliveries);
  }
}


// (b) CachingRouter returns bit-identical routes across repeated and
// concurrent calls.

TEST(CachingRouter, RepeatedCallsReturnIdenticalRoutes) {
  const topo::Mesh2D mesh(8, 8);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);
  const mcast::CachingRouter cached(mcast::make_router(mesh, Algorithm::kDualPath));

  const auto requests = random_requests(mesh, 40, 12, 23);
  for (const auto& req : requests) {
    const mcast::MulticastRoute expected = plain->route(req);
    EXPECT_EQ(cached.route(req), expected);  // miss path
    EXPECT_EQ(cached.route(req), expected);  // hit path
  }
  const mcast::RouteCacheStats st = cached.stats();
  EXPECT_GE(st.hits, requests.size());
  EXPECT_GT(st.hit_rate(), 0.0);
}

TEST(CachingRouter, PermutedDestinationsShareOneEntry) {
  const topo::Mesh2D mesh(8, 8);
  const mcast::CachingRouter cached(mcast::make_router(mesh, Algorithm::kDualPath));
  const mcast::MulticastRequest forward{0, {5, 9, 27, 42}};
  const mcast::MulticastRequest reversed{0, {42, 27, 9, 5}};
  const mcast::MulticastRoute first = cached.route(forward);
  EXPECT_EQ(cached.route(reversed), first);
  EXPECT_EQ(cached.stats().hits, 1u);
  EXPECT_EQ(cached.size(), 1u);
}

TEST(CachingRouter, ConcurrentCallsAreRaceFreeAndIdentical) {
  const topo::Mesh2D mesh(8, 8);
  const auto plain = mcast::make_router(mesh, Algorithm::kMultiPath);
  const mcast::CachingRouter cached(mcast::make_router(mesh, Algorithm::kMultiPath),
                                    {.capacity = 64, .shards = 4});

  const auto requests = random_requests(mesh, 32, 10, 29);
  std::vector<mcast::MulticastRoute> expected;
  expected.reserve(requests.size());
  for (const auto& req : requests) expected.push_back(plain->route(req));

  std::atomic<int> mismatches{0};
  worm::parallel_for(8 * requests.size(), [&](std::size_t i) {
    const std::size_t r = i % requests.size();
    if (!(cached.route(requests[r]) == expected[r])) mismatches.fetch_add(1);
  }, 8);
  EXPECT_EQ(mismatches.load(), 0);
  const mcast::RouteCacheStats st = cached.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_EQ(st.hits + st.misses, 8 * requests.size());
}

// (c) Eviction respects the configured capacity.

TEST(CachingRouter, EvictsDownToCapacity) {
  const topo::Mesh2D mesh(8, 8);
  mcast::CachingRouter cached(mcast::make_router(mesh, Algorithm::kDualPath),
                              {.capacity = 8, .shards = 2});
  EXPECT_EQ(cached.capacity(), 8u);

  const auto requests = random_requests(mesh, 200, 6, 31);
  for (const auto& req : requests) (void)cached.route(req);
  EXPECT_LE(cached.size(), cached.capacity());
  EXPECT_GT(cached.stats().evictions, 0u);

  cached.clear();
  EXPECT_EQ(cached.size(), 0u);
}

TEST(CachingRouter, LruKeepsHotEntries) {
  const topo::Mesh2D mesh(8, 8);
  const mcast::CachingRouter cached(mcast::make_router(mesh, Algorithm::kDualPath),
                                    {.capacity = 4, .shards = 1});
  const mcast::MulticastRequest hot{0, {63}};
  (void)cached.route(hot);
  // Flood with distinct requests, re-touching `hot` between each so it
  // stays at the front of the LRU and never gets evicted.
  for (topo::NodeId d = 1; d < 40; ++d) {
    (void)cached.route({0, {d}});
    (void)cached.route(hot);
  }
  const std::uint64_t hits_before = cached.stats().hits;
  (void)cached.route(hot);
  EXPECT_EQ(cached.stats().hits, hits_before + 1);
}

// Router-based entry points: service and dynamic harness.

TEST(RouterIntegration, MulticastServiceRoutesThroughRouter) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_caching_router(mesh, Algorithm::kDualPath);
  evsim::Scheduler sched;
  svc::MulticastService service(
      *router, {.flit_time = 50e-9, .message_flits = 32, .channel_copies = 1}, sched);

  std::vector<topo::NodeId> delivered;
  double done_latency = -1.0;
  service.multicast(
      {0, {5, 10, 15}},
      [&](topo::NodeId d, double) { delivered.push_back(d); },
      [&](double l) { done_latency = l; });
  sched.run();
  EXPECT_EQ(delivered.size(), 3u);
  EXPECT_GT(done_latency, 0.0);
  EXPECT_TRUE(service.network().idle());
  EXPECT_EQ(router->stats().misses, 1u);

  // A second identical multicast is a route-cache hit.
  service.multicast({0, {5, 10, 15}});
  sched.run();
  EXPECT_GT(router->stats().hits, 0u);
}

TEST(RouterIntegration, DynamicRunWithRepeatedGroupsHitsCache) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_caching_router(mesh, Algorithm::kDualPath);

  worm::DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 16, .channel_copies = 1};
  // 16 nodes x 1 destination = at most 240 distinct requests; a few hundred
  // messages guarantee repeated destination sets.
  cfg.traffic = {.mean_interarrival_s = 200e-6,
                 .avg_destinations = 1,
                 .fixed_destinations = true,
                 .exponential_interarrival = false,
                 .seed = 37};
  cfg.target_messages = 400;
  cfg.max_messages = 800;
  cfg.max_sim_time_s = 0.5;
  const worm::DynamicResult r = worm::run_dynamic(*router, cfg);
  EXPECT_GT(r.messages_completed, 0u);
  EXPECT_GT(router->stats().hits, 0u);
  EXPECT_GT(router->stats().hit_rate(), 0.0);
}

TEST(ParallelFor, ExplicitZeroThreadHintFallsBackToSaneWorkerCount) {
  // A 0 hint (what hardware_concurrency() returns when unknown) must not
  // degenerate: all indices still execute exactly once.
  std::vector<std::atomic<int>> counts(64);
  worm::parallel_for(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); }, 0);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

}  // namespace
