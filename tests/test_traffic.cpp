// TrafficDriver: per-node multicast generators (Section 7.2 workload).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "core/router.hpp"
#include "evsim/scheduler.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/traffic.hpp"

namespace {

using namespace mcnet;
using topo::Mesh2D;
using topo::NodeId;

using Log = std::vector<std::pair<NodeId, std::size_t>>;

/// Dual-path router that logs (source, destination count) of every request
/// a TrafficDriver routes through it.
class LoggingRouter final : public mcast::Router {
 public:
  LoggingRouter(const Mesh2D& mesh, Log& log)
      : inner_(mcast::make_router(mesh, mcast::Algorithm::kDualPath)), log_(&log) {}

  [[nodiscard]] mcast::MulticastRoute route(
      const mcast::MulticastRequest& request) const override {
    log_->emplace_back(request.source, request.destinations.size());
    return inner_->route(request);
  }
  [[nodiscard]] std::vector<worm::WormSpec> specs(
      const mcast::MulticastRoute& route) const override {
    return inner_->specs(route);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] mcast::Algorithm algorithm() const override { return inner_->algorithm(); }
  [[nodiscard]] bool deadlock_free() const override { return inner_->deadlock_free(); }
  [[nodiscard]] const topo::Topology& topology() const override { return inner_->topology(); }
  [[nodiscard]] std::uint8_t channel_copies() const override {
    return inner_->channel_copies();
  }

 private:
  std::unique_ptr<mcast::Router> inner_;
  Log* log_;
};

struct Fixture {
  Mesh2D mesh{4, 4};
  Log log;
  LoggingRouter router{mesh, log};
  evsim::Scheduler sched;
  worm::Network net{mesh, {.flit_time = 1e-7, .message_flits = 8, .channel_copies = 1},
                    sched};
};

TEST(TrafficDriver, EveryNodeGenerates) {
  Fixture f;
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 3,
                              .fixed_destinations = false,
                              .exponential_interarrival = false,
                              .seed = 5},
                             f.router);
  driver.start();
  f.sched.run_until(20e-3);
  driver.stop();
  f.sched.run();
  std::set<NodeId> sources;
  for (const auto& [src, k] : f.log) sources.insert(src);
  EXPECT_EQ(sources.size(), f.mesh.num_nodes()) << "every node must generate";
  EXPECT_TRUE(f.net.idle());
}

TEST(TrafficDriver, FixedDestinationCountIsExact) {
  Fixture f;
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 7,
                              .fixed_destinations = true,
                              .exponential_interarrival = false,
                              .seed = 6},
                             f.router);
  driver.start();
  f.sched.run_until(10e-3);
  driver.stop();
  f.sched.run();
  ASSERT_FALSE(f.log.empty());
  for (const auto& [src, k] : f.log) EXPECT_EQ(k, 7u);
}

TEST(TrafficDriver, VariableDestinationCountHasRequestedMean) {
  Fixture f;
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 0.2e-3,
                              .avg_destinations = 5,
                              .fixed_destinations = false,
                              .exponential_interarrival = false,
                              .seed = 7},
                             f.router);
  driver.start();
  f.sched.run_until(200e-3);
  driver.stop();
  f.sched.run();
  ASSERT_GT(f.log.size(), 2000u);
  double total = 0.0;
  std::size_t lo = 99, hi = 0;
  for (const auto& [src, k] : f.log) {
    total += static_cast<double>(k);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  EXPECT_NEAR(total / static_cast<double>(f.log.size()), 5.0, 0.25);
  EXPECT_EQ(lo, 1u);   // uniform over [1, 2*avg - 1]
  EXPECT_EQ(hi, 9u);
}

TEST(TrafficDriver, StopHaltsGeneration) {
  Fixture f;
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 2,
                              .fixed_destinations = true,
                              .exponential_interarrival = false,
                              .seed = 8},
                             f.router);
  driver.start();
  f.sched.run_until(5e-3);
  driver.stop();
  const std::size_t at_stop = f.log.size();
  f.sched.run();
  EXPECT_EQ(f.log.size(), at_stop) << "no new messages after stop";
  EXPECT_TRUE(f.net.idle()) << "in-flight worms drain after stop";
}

TEST(TrafficDriver, ExponentialModeRunsAndDiffersFromUniform) {
  Fixture f;
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 3,
                              .fixed_destinations = true,
                              .exponential_interarrival = true,
                              .seed = 9},
                             f.router);
  driver.start();
  f.sched.run_until(50e-3);
  driver.stop();
  f.sched.run();
  // ~16 nodes * 50 arrivals each expected; allow wide slack.
  EXPECT_GT(f.log.size(), 400u);
  EXPECT_LT(f.log.size(), 1300u);
}

TEST(TrafficDriver, RejectsConfigsItCannotGenerate) {
  Fixture f;
  const auto expect_rejected = [&](const worm::TrafficConfig& config, const char* field) {
    try {
      worm::TrafficDriver driver(f.sched, f.net, config, f.router);
      ADD_FAILURE() << "accepted a config with bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  for (const double gap : {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    expect_rejected({.mean_interarrival_s = gap}, "mean_interarrival_s");
  }
  expect_rejected({.avg_destinations = 0}, "avg_destinations");
  expect_rejected({.avg_destinations = 0, .fixed_destinations = true}, "avg_destinations");
  EXPECT_TRUE(f.log.empty());
  EXPECT_EQ(f.sched.pending(), 0u);

  // The benchmark's operating point stays valid.
  const worm::TrafficConfig bench_point{.mean_interarrival_s = 150e-6, .avg_destinations = 10};
  EXPECT_NO_THROW(worm::TrafficDriver(f.sched, f.net, bench_point, f.router));
}

}  // namespace
