// Dynamic-experiment harness integration tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>

#include "core/router.hpp"
#include "wormhole/experiment.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using mcast::make_router;
using topo::Mesh2D;
using worm::DynamicConfig;
using worm::DynamicResult;

TEST(DynamicExperiment, LowLoadLatencyNearContentionFreeMinimum) {
  // At very light load the mean per-destination latency must sit close to
  // the contention-free value (distance + L - 1 flit times) and the run
  // must converge.
  const Mesh2D mesh(8, 8);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 10e-3,  // essentially no contention
                 .avg_destinations = 10,
                 .fixed_destinations = false,
                 .exponential_interarrival = false,
                 .seed = 11};
  cfg.target_messages = 400;
  cfg.max_messages = 2000;
  cfg.max_sim_time_s = 10.0;
  cfg.batch_size = 300;
  const DynamicResult r =
      run_dynamic(*make_router(mesh, Algorithm::kDualPath, 1), cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.deliveries, 1000u);
  // Floor: (min distance 1 + 127 flits) * 50 ns = 6.4 us; dual-path visits
  // up to ~tens of hops, so the mean must be in (6.4, ~25) us at no load.
  EXPECT_GT(r.mean_latency_us, 6.4);
  EXPECT_LT(r.mean_latency_us, 30.0);
}

TEST(DynamicExperiment, LatencyIncreasesWithLoad) {
  const Mesh2D mesh(8, 8);
  double prev = 0.0;
  for (const double interarrival : {5e-3, 400e-6, 150e-6}) {
    DynamicConfig cfg;
    cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
    cfg.traffic = {.mean_interarrival_s = interarrival,
                   .avg_destinations = 10,
                   .fixed_destinations = false,
                   .exponential_interarrival = false,
                   .seed = 13};
    cfg.target_messages = 600;
    cfg.max_messages = 3000;
    cfg.max_sim_time_s = 5.0;
    const DynamicResult r =
        run_dynamic(*make_router(mesh, Algorithm::kDualPath, 1), cfg);
    EXPECT_GT(r.mean_latency_us, prev) << "interarrival " << interarrival;
    prev = r.mean_latency_us;
  }
}

TEST(DynamicExperiment, DeterministicAcrossRuns) {
  const Mesh2D mesh(8, 8);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 500e-6,
                 .avg_destinations = 8,
                 .fixed_destinations = false,
                 .exponential_interarrival = false,
                 .seed = 17};
  cfg.target_messages = 300;
  cfg.max_messages = 600;
  cfg.max_sim_time_s = 2.0;
  const DynamicResult a =
      run_dynamic(*make_router(mesh, Algorithm::kMultiPath, 1), cfg);
  const DynamicResult b =
      run_dynamic(*make_router(mesh, Algorithm::kMultiPath, 1), cfg);
  EXPECT_DOUBLE_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.messages_completed, b.messages_completed);
}

TEST(DynamicExperiment, TreeOnDoubleChannelsCompletes) {
  // The double-channel X-first tree is deadlock-free: a dynamic run must
  // make progress and complete messages (Assertion 1 under load).
  const Mesh2D mesh(8, 8);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 2};
  cfg.traffic = {.mean_interarrival_s = 600e-6,
                 .avg_destinations = 10,
                 .fixed_destinations = false,
                 .exponential_interarrival = false,
                 .seed = 19};
  cfg.target_messages = 400;
  cfg.max_messages = 1500;
  cfg.max_sim_time_s = 2.0;
  const DynamicResult r =
      run_dynamic(*make_router(mesh, Algorithm::kDCXFirstTree, 2), cfg);
  EXPECT_GT(r.messages_completed, 300u);
  EXPECT_GT(r.mean_latency_us, 0.0);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  worm::parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Degenerate cases.
  worm::parallel_for(0, [](std::size_t) { FAIL(); }, 4);
  int calls = 0;
  worm::parallel_for(3, [&](std::size_t) { ++calls; }, 1);
  EXPECT_EQ(calls, 3);
}

TEST(ParallelFor, RethrowsWorkerExceptionInsteadOfTerminating) {
  // A throwing body used to escape into the worker thread and
  // std::terminate the whole process; now the first exception is rethrown
  // on the calling thread after every worker joined.
  EXPECT_THROW(
      worm::parallel_for(
          64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom at 13");
          },
          4),
      std::runtime_error);

  try {
    worm::parallel_for(
        8, [](std::size_t) { throw std::logic_error("always"); }, 2);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "always");
  }

  // Remaining indices are abandoned after the failure: with one worker the
  // iteration order is deterministic, so nothing past the throw runs.
  std::vector<int> visited;
  EXPECT_THROW(worm::parallel_for(
                   10,
                   [&](std::size_t i) {
                     if (i == 3) throw std::runtime_error("stop");
                     visited.push_back(static_cast<int>(i));
                   },
                   1),
               std::runtime_error);
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2}));
}

TEST(DynamicExperiment, TinyRunReportsInvalidConfidenceInterval) {
  const Mesh2D mesh(4, 4);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 16, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 200e-6,
                 .avg_destinations = 2,
                 .fixed_destinations = true,
                 .exponential_interarrival = false,
                 .seed = 3};
  // A handful of messages cannot fill two effective batches, so the CI is
  // meaningless -- it must be flagged invalid and NaN, never silently 0.
  cfg.target_messages = 4;
  cfg.max_messages = 4;
  cfg.max_sim_time_s = 0.5;
  cfg.batch_size = 1000;
  const DynamicResult r = run_dynamic(*make_router(mesh, Algorithm::kDualPath, 1), cfg);
  EXPECT_FALSE(r.ci_valid);
  EXPECT_TRUE(std::isnan(r.ci_half_us));
  EXPECT_GT(r.deliveries, 0u);
}

TEST(DynamicExperiment, LongRunReportsValidConfidenceInterval) {
  const Mesh2D mesh(4, 4);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 16, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 200e-6,
                 .avg_destinations = 2,
                 .fixed_destinations = true,
                 .exponential_interarrival = false,
                 .seed = 3};
  cfg.target_messages = 200;
  cfg.max_messages = 800;
  cfg.max_sim_time_s = 1.0;
  cfg.batch_size = 20;
  const DynamicResult r = run_dynamic(*make_router(mesh, Algorithm::kDualPath, 1), cfg);
  EXPECT_TRUE(r.ci_valid);
  EXPECT_TRUE(std::isfinite(r.ci_half_us));
  EXPECT_GE(r.ci_half_us, 0.0);
}

}  // namespace
