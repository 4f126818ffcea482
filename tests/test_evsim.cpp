#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "evsim/stats.hpp"

namespace {

using namespace mcnet::evsim;

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, TiesBreakInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, HandlersCanScheduleMoreEvents) {
  Scheduler s;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10) s.schedule_in(1.0, chain);
  };
  s.schedule_in(1.0, chain);
  s.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(s.run_until(2.5), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler s;
  s.schedule_at(2.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Stats, SummaryWelford) {
  Summary sum;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) sum.add(x);
  EXPECT_EQ(sum.count(), 8u);
  EXPECT_DOUBLE_EQ(sum.mean(), 5.0);
  EXPECT_NEAR(sum.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(sum.min(), 2.0);
  EXPECT_DOUBLE_EQ(sum.max(), 9.0);
}

TEST(Stats, StudentTQuantiles) {
  EXPECT_NEAR(student_t_975(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_975(10), 2.228, 1e-3);
  EXPECT_NEAR(student_t_975(30), 2.042, 1e-3);
  EXPECT_NEAR(student_t_975(1000), 1.96, 1e-3);
  EXPECT_TRUE(std::isinf(student_t_975(0)));
}

TEST(Stats, BatchMeansDiscardsWarmupAndConverges) {
  BatchMeans bm(10, /*discard=*/1);
  // Warm-up batch of large values, then steady batches around 5.
  for (int i = 0; i < 10; ++i) bm.add(100.0);
  for (int i = 0; i < 200; ++i) bm.add(5.0 + ((i % 2 == 0) ? 0.01 : -0.01));
  EXPECT_EQ(bm.completed_batches(), 21u);
  EXPECT_EQ(bm.effective_batches(), 20u);
  EXPECT_NEAR(bm.mean(), 5.0, 1e-9);  // warm-up batch excluded
  EXPECT_TRUE(bm.converged(0.05, 10));
}

TEST(Stats, BatchMeansNotConvergedWhenNoisy) {
  BatchMeans bm(5, 0);
  for (int i = 0; i < 30; ++i) bm.add(i % 2 == 0 ? 1.0 : 100.0);
  EXPECT_FALSE(bm.converged(0.05, 3));
}

TEST(Random, SeedDerivationDecorrelates) {
  const std::uint64_t a = derive_seed(1, 0);
  const std::uint64_t b = derive_seed(1, 1);
  const std::uint64_t c = derive_seed(2, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(Random, SampleDestinationsDistinctAndExcludesSource) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    const auto dests = rng.sample_destinations(64, 10, 20);
    EXPECT_EQ(dests.size(), 20u);
    std::set<mcnet::topo::NodeId> set(dests.begin(), dests.end());
    EXPECT_EQ(set.size(), 20u) << "duplicates";
    EXPECT_FALSE(set.contains(10u)) << "source sampled";
    for (const auto d : set) EXPECT_LT(d, 64u);
  }
}

TEST(Random, SampleDestinationsFullNetwork) {
  Rng rng(7);
  const auto dests = rng.sample_destinations(16, 3, 15);
  std::set<mcnet::topo::NodeId> set(dests.begin(), dests.end());
  EXPECT_EQ(set.size(), 15u);
  EXPECT_FALSE(set.contains(3u));
  EXPECT_THROW((void)rng.sample_destinations(16, 3, 16), std::invalid_argument);
}

// FNV-1a over the little-endian bytes of each node id.
std::uint64_t fnv1a(const std::vector<mcnet::topo::NodeId>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const mcnet::topo::NodeId id : ids) {
    for (int b = 0; b < 4; ++b) {
      h ^= (id >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Random, SampleDestinationsOutputIsPinned) {
  // Floyd's draws followed by the shuffle, as recorded with libstdc++'s
  // uniform_int_distribution and std::shuffle: any rewrite of the sampler
  // must pick the same sets in the same order and leave the stream where
  // the original left it (the second call of each stream checks that).
  using V = std::vector<mcnet::topo::NodeId>;
  Rng small(7);
  EXPECT_EQ(small.sample_destinations(16, 3, 5), (V{1, 2, 12, 13, 9}));
  EXPECT_EQ(small.sample_destinations(16, 3, 5), (V{4, 9, 13, 10, 11}));
  Rng mesh(2024);
  EXPECT_EQ(mesh.sample_destinations(64, 63, 10), (V{61, 34, 43, 19, 62, 56, 0, 14, 33, 8}));
  EXPECT_EQ(mesh.sample_destinations(64, 63, 10), (V{6, 52, 56, 24, 42, 8, 16, 27, 18, 53}));
  Rng large(11);
  EXPECT_EQ(fnv1a(large.sample_destinations(4096, 1234, 1000)), 0x87ce1fc388201e2dULL);
  EXPECT_EQ(fnv1a(large.sample_destinations(4096, 1234, 1000)), 0xf6de91497c7ceb32ULL);
}

TEST(Summary, HandlesEdgeCases) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // no samples: defined as zero
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // single sample: zero, not NaN
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(-5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 50.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
}

TEST(BatchMeans, DiscardAtLeastCompletedLeavesNoEffectiveBatches) {
  BatchMeans bm(10, /*discard=*/3);
  for (int i = 0; i < 30; ++i) bm.add(1.0);  // exactly 3 completed batches
  EXPECT_EQ(bm.completed_batches(), 3u);
  EXPECT_EQ(bm.effective_batches(), 0u);
  EXPECT_DOUBLE_EQ(bm.mean(), 0.0);
  EXPECT_TRUE(std::isinf(bm.half_width()));
  EXPECT_FALSE(bm.converged());
}

TEST(BatchMeans, SingleEffectiveBatchHasInfiniteHalfWidth) {
  BatchMeans bm(5, /*discard=*/1);
  for (int i = 0; i < 10; ++i) bm.add(2.0);  // 2 completed, 1 effective
  EXPECT_EQ(bm.effective_batches(), 1u);
  EXPECT_DOUBLE_EQ(bm.mean(), 2.0);
  // One batch mean gives no variance estimate: the half-width must be
  // infinite (unknown), never zero (claiming perfect precision).
  EXPECT_TRUE(std::isinf(bm.half_width()));
  EXPECT_FALSE(bm.converged(0.05, 1));
}

TEST(BatchMeans, ZeroMeanNeverConverges) {
  BatchMeans bm(2, /*discard=*/0);
  for (int i = 0; i < 100; ++i) bm.add(0.0);
  EXPECT_EQ(bm.effective_batches(), 50u);
  EXPECT_DOUBLE_EQ(bm.mean(), 0.0);
  EXPECT_DOUBLE_EQ(bm.half_width(), 0.0);
  // The relative-width rule is undefined at mean zero; converged() must
  // answer false rather than divide by zero.
  EXPECT_FALSE(bm.converged());
}

TEST(BatchMeans, ConvergesOnSteadyData) {
  BatchMeans bm(10, /*discard=*/1);
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) bm.add(100.0 + rng.uniform(-1.0, 1.0));
  EXPECT_GE(bm.effective_batches(), 10u);
  EXPECT_NEAR(bm.mean(), 100.0, 0.5);
  EXPECT_TRUE(bm.converged(0.05, 10));
  EXPECT_LT(bm.half_width(), 1.0);
}

TEST(BatchMeans, PartialBatchDoesNotCount) {
  BatchMeans bm(10, /*discard=*/0);
  for (int i = 0; i < 9; ++i) bm.add(1.0);
  EXPECT_EQ(bm.samples(), 9u);
  EXPECT_EQ(bm.completed_batches(), 0u);
  bm.add(1.0);
  EXPECT_EQ(bm.completed_batches(), 1u);
  EXPECT_THROW(BatchMeans(0, 0), std::invalid_argument);
}

TEST(Random, SampleDestinationsIsRoughlyUniform) {
  Rng rng(123);
  std::vector<int> counts(16, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    for (const auto d : rng.sample_destinations(16, 0, 3)) ++counts[d];
  }
  // Each of the 15 candidates should appear ~ trials * 3 / 15 = 4000 times.
  EXPECT_EQ(counts[0], 0);
  for (int d = 1; d < 16; ++d) {
    EXPECT_NEAR(counts[d], 4000, 400) << "node " << d;
  }
}

}  // namespace
