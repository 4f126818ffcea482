// RouteBatch arena semantics, the route_many batch/scalar equivalence
// property across every topology/algorithm pair of the CI matrix (also
// through the cached and fault-aware stacks), CachingRouter accounting and
// config validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/route_arena.hpp"
#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "fault/fault_router.hpp"
#include "fault/fault_state.hpp"
#include "topology/mesh2d.hpp"
#include "topology/spec.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

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

// (a) RouteBatch value semantics: append/route_at round-trips and
// per-element metrics match the scalar accessors.

TEST(RouteBatch, AppendRoundTripsAndMetricsMatch) {
  const topo::Mesh2D mesh(6, 5);
  const auto router = mcast::make_router(mesh, Algorithm::kDualPath);
  const auto requests = random_requests(mesh, 10, 8, 3);

  mcast::RouteBatch batch;
  std::vector<mcast::MulticastRoute> scalar;
  std::uint64_t total = 0;
  for (const auto& req : requests) {
    scalar.push_back(router->route(req));
    EXPECT_EQ(batch.append(scalar.back()), scalar.size() - 1);
    total += scalar.back().traffic();
  }
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.route_at(i), scalar[i]);
    EXPECT_EQ(batch.source_at(i), requests[i].source);
    EXPECT_EQ(batch.traffic_at(i), scalar[i].traffic());
    EXPECT_EQ(batch.deliveries_at(i), scalar[i].num_deliveries());
    EXPECT_EQ(batch.max_delivery_hops_at(i), scalar[i].max_delivery_hops());
  }
  EXPECT_EQ(batch.total_traffic(), total);
}

TEST(RouteBatch, ClearDropsElementsAndArenas) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_router(mesh, Algorithm::kDualPath);
  mcast::RouteBatch batch = router->route_many(random_requests(mesh, 4, 4, 9));
  ASSERT_GT(batch.arena_path_nodes(), 0u);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.arena_path_nodes(), 0u);
  EXPECT_EQ(batch.total_traffic(), 0u);
}

TEST(RouteBatch, EmptySpanYieldsEmptyBatch) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_caching_router(mesh, Algorithm::kDualPath);
  EXPECT_TRUE(router->route_many({}).empty());
}

// (b) The equivalence property: route_many == N scalar route() calls for
// every algorithm on every topology of the CI matrix, each element
// structurally valid.  Also pinned through a CachingRouter, cold and warm.

TEST(RouteMany, EquivalentToScalarAcrossTopologyMatrix) {
  for (const std::string spec :
       {"mesh:5x4", "cube:4", "mesh3:3x3x3", "kary:4x2", "karymesh:4x3"}) {
    const auto topology = topo::make_topology(spec);
    const auto requests = random_requests(*topology, 12, 6, 29);
    for (const Algorithm a : mcast::supported_algorithms(*topology)) {
      SCOPED_TRACE(spec + " / " + std::string(mcast::algorithm_name(a)));
      const auto router = mcast::make_router(*topology, a);
      const mcast::RouteBatch batch = router->route_many(requests);
      ASSERT_EQ(batch.size(), requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const mcast::MulticastRoute route = batch.route_at(i);
        EXPECT_EQ(route, router->route(requests[i]));
        verify_route(*topology, requests[i], route);
      }

      // Cached wrapper: cold pass fills, warm pass hits.
      const auto cached = mcast::make_caching_router(*topology, a);
      for (int pass = 0; pass < 2; ++pass) {
        const mcast::RouteBatch cb = cached->route_many(requests);
        ASSERT_EQ(cb.size(), requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i) {
          EXPECT_EQ(cb.route_at(i), router->route(requests[i]));
        }
      }
    }
  }
}

TEST(RouteMany, DuplicatesAndPermutationsMatchScalar) {
  const topo::Mesh2D mesh(8, 8);
  const auto cached = mcast::make_caching_router(mesh, Algorithm::kDualPath);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);

  // Byte-identical duplicates, permuted destination lists (same cache
  // key) and fresh requests (misses).
  std::vector<mcast::MulticastRequest> requests = {
      {0, {5, 10, 15}}, {0, {5, 10, 15}}, {0, {15, 5, 10}},
      {3, {7, 42}},     {0, {5, 10, 15}}, {3, {42, 7}},
      {9, {1, 2, 3}},   {9, {1, 2, 3}},
  };
  for (int pass = 0; pass < 3; ++pass) {
    if (pass == 2) cached->clear();
    const mcast::RouteBatch batch = cached->route_many(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batch.route_at(i), plain->route(requests[i])) << "pass " << pass;
    }
  }
}

TEST(RouteMany, ConcurrentBatchesMatchScalar) {
  const topo::Mesh2D mesh(8, 8);
  const auto cached = mcast::make_caching_router(
      mesh, Algorithm::kDualPath, 1, {.capacity = 32, .shards = 4});  // force evictions
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);
  const auto requests = random_requests(mesh, 96, 8, 41);
  std::vector<mcast::MulticastRoute> expected;
  for (const auto& req : requests) expected.push_back(plain->route(req));

  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int rep = 0; rep < 8; ++rep) {
        const mcast::RouteBatch batch = cached->route_many(requests);
        for (std::size_t i = 0; i < requests.size(); ++i) {
          if (batch.route_at(i) != expected[i]) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
  EXPECT_LE(cached->size(), cached->capacity());
}

// (c) CachingRouter accounting and config validation.

TEST(RouteCache, RouteManyCountsEveryRequestInTheShards) {
  const topo::Mesh2D mesh(6, 6);
  const auto cached = mcast::make_caching_router(mesh, Algorithm::kDualPath);

  // Repeats of a and b, plus a permutation of a (a different request that
  // shares a's cache key).
  const mcast::MulticastRequest a{0, {5, 10}};
  const mcast::MulticastRequest a_permuted{0, {10, 5}};
  const mcast::MulticastRequest b{1, {8, 20}};
  const mcast::MulticastRequest c{2, {30}};
  const std::vector<mcast::MulticastRequest> requests = {a, b, a, c, a_permuted, b, a};

  (void)cached->route_many(requests);
  const mcast::RouteCacheStats first = cached->stats();
  EXPECT_EQ(first.hits + first.misses, requests.size());
  EXPECT_EQ(first.misses, 3u);  // a, b, c routed once each

  (void)cached->route_many(requests);
  const mcast::RouteCacheStats second = cached->stats();
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.hits, first.hits + requests.size());
  EXPECT_EQ(second.batch_hits + second.batch_misses + second.batch_dedup, 0u);
}

TEST(RouteCache, RejectsZeroCapacityAndZeroShards) {
  const topo::Mesh2D mesh(4, 4);
  EXPECT_THROW(
      {
        try {
          (void)mcast::make_caching_router(mesh, Algorithm::kDualPath, 1, {.capacity = 0});
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("capacity must be >= 1"), std::string::npos);
          throw;
        }
      },
      std::invalid_argument);
  EXPECT_THROW(
      {
        try {
          (void)mcast::make_caching_router(mesh, Algorithm::kDualPath, 1,
                                           {.capacity = 8, .shards = 0});
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("shards must be >= 1"), std::string::npos);
          throw;
        }
      },
      std::invalid_argument);
  EXPECT_THROW(mcast::CachingRouter(nullptr, {}), std::invalid_argument);
}

TEST(RouteCache, CapacityIsExactAndShardsClampToIt) {
  const topo::Mesh2D mesh(4, 4);
  // 10 slots over 4 shards: no rounding; 3 slots over 8 shards: clamp to 3.
  const auto a = mcast::make_caching_router(mesh, Algorithm::kDualPath, 1,
                                            {.capacity = 10, .shards = 4});
  EXPECT_EQ(a->capacity(), 10u);
  EXPECT_EQ(a->shards(), 4u);
  const auto b = mcast::make_caching_router(mesh, Algorithm::kDualPath, 1,
                                            {.capacity = 3, .shards = 8});
  EXPECT_EQ(b->capacity(), 3u);
  EXPECT_EQ(b->shards(), 3u);

  // The bound is enforced across shards: never more than capacity() routes.
  const auto requests = random_requests(mesh, 40, 4, 53);
  for (const auto& req : requests) (void)a->route(req);
  EXPECT_LE(a->size(), a->capacity());
  EXPECT_GE(a->stats().evictions, 40u - 10u - a->stats().hits);
}

// (d) FaultAwareRouter: healthy and degraded batches match scalar routing,
// with the same throw contract as route().

TEST(FaultRouterBatch, HealthyAndDegradedMatchScalar) {
  const topo::Mesh2D mesh(4, 4);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults);
  const auto requests = random_requests(mesh, 10, 5, 61);

  const mcast::RouteBatch healthy = router->route_many(requests);
  ASSERT_EQ(healthy.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(healthy.route_at(i), router->route(requests[i]));
  }

  // Degrade (still connected): the batch must agree with scalar
  // fault-aware routing element by element.
  faults->fail_channel(mesh.channel(0, 1));
  faults->fail_channel(mesh.channel(1, 0));
  const mcast::RouteBatch degraded = router->route_many(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(degraded.route_at(i), router->route(requests[i]));
    verify_route(mesh, requests[i], degraded.route_at(i));
  }
}

TEST(FaultRouterBatch, ThrowsOnUnreachableDestination) {
  const topo::Mesh2D mesh(3, 3);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults);
  for (const topo::NodeId v : mesh.neighbors(8)) {
    faults->fail_channel(mesh.channel(8, v));
    faults->fail_channel(mesh.channel(v, 8));
  }
  const std::vector<mcast::MulticastRequest> requests = {{0, {4}}, {0, {4, 8}}};
  EXPECT_THROW((void)router->route_many(requests), std::runtime_error);
}

}  // namespace
