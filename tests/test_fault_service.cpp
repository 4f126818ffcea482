// Fault-tolerant delivery: the wormhole network under injected failures
// (worm kills, drops, aborts) and the service layer's reliable multicast
// (timeout, retry/backoff, delivery reports).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_router.hpp"
#include "service/multicast_service.hpp"
#include "topology/mesh2d.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using Status = svc::DeliveryReport::Status;

// First-hop channel of the route the fixture's router picks for `req` --
// failing it mid-flight is guaranteed to hit a held link.
topo::ChannelId first_hop_channel(const fault::FaultAwareRouter& router,
                                  const mcast::MulticastRequest& req) {
  const mcast::MulticastRoute route = router.route(req);
  if (!route.paths.empty()) {
    return router.topology().channel(route.paths[0].nodes[0], route.paths[0].nodes[1]);
  }
  const auto& link = route.trees.at(0).links.at(0);
  return router.topology().channel(link.from, link.to);
}

struct Fixture {
  topo::Mesh2D mesh;
  std::shared_ptr<fault::FaultState> faults;
  std::unique_ptr<fault::FaultAwareRouter> router;
  evsim::Scheduler sched;
  svc::MulticastService service;

  explicit Fixture(std::uint32_t w, std::uint32_t h, worm::WormholeParams params = {})
      : mesh(w, h),
        faults(std::make_shared<fault::FaultState>(mesh)),
        router(fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults)),
        service(*router, params, sched) {}
};

TEST(FaultNetwork, MidFlightChannelFailureKillsAndDrops) {
  Fixture fx(4, 4);
  worm::Network& net = fx.service.network();

  bool done = false;
  const topo::ChannelId hop = first_hop_channel(*fx.router, {0, {15}});
  fx.service.multicast({0, {15}}, {}, [&](double) { done = true; });

  // Kill the first hop while the worm still holds it (it releases only
  // after the 128-flit tail drains, far past 60 ns).
  fx.sched.schedule_in(60e-9, [&, hop] { net.fail_channel(hop); });
  fx.sched.run();

  EXPECT_TRUE(done);  // the message completes (degraded), it never hangs
  EXPECT_EQ(net.worms_killed(), 1u);
  EXPECT_EQ(net.deliveries_dropped(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.messages_completed(), 1u);
}

TEST(FaultNetwork, AbortMessageDropsUndelivered) {
  Fixture fx(4, 4);
  worm::Network& net = fx.service.network();
  bool done = false;
  const auto h = fx.service.multicast({0, {5, 10, 15}}, {}, [&](double) { done = true; });
  fx.sched.schedule_in(10e-9, [&, h] { net.abort_message(h); });
  fx.sched.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(net.idle());
  EXPECT_GE(net.deliveries_dropped(), 1u);
}

TEST(FaultService, ReliableDeliversEverythingWhenHealthy) {
  Fixture fx(4, 4);
  svc::DeliveryReport report;
  bool reported = false;
  fx.service.multicast_reliable({0, {5, 10, 15}}, [&](const svc::DeliveryReport& r) {
    report = r;
    reported = true;
  });
  fx.sched.run();
  ASSERT_TRUE(reported);
  ASSERT_EQ(report.destinations.size(), 3u);
  EXPECT_TRUE(report.all_delivered());
  EXPECT_EQ(report.attempts_used, 1u);
  for (const auto& d : report.destinations) {
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_GT(d.latency_s, 0.0);
  }
  EXPECT_TRUE(fx.service.network().idle());
}

TEST(FaultService, RetryRedeliversAfterMidFlightFailure) {
  Fixture fx(4, 4);
  worm::Network& net = fx.service.network();

  svc::DeliveryReport report;
  bool reported = false;
  fx.service.multicast_reliable({0, {15}}, [&](const svc::DeliveryReport& r) {
    report = r;
    reported = true;
  });
  // Fail a link on the route while the worm holds it: attempt 1 drops, the
  // retry must route around the failure and deliver.
  const topo::ChannelId hop = first_hop_channel(*fx.router, {0, {15}});
  fx.sched.schedule_in(60e-9, [&, hop] { net.fail_channel(hop); });
  fx.sched.run();

  ASSERT_TRUE(reported);
  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].node, 15u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[0].attempts, 2u);
  EXPECT_EQ(report.attempts_used, 2u);
  EXPECT_GE(net.worms_killed(), 1u);
  EXPECT_TRUE(net.idle());
}

TEST(FaultService, PartitionedDestinationReportedUnreachable) {
  Fixture fx(3, 3);
  worm::Network& net = fx.service.network();
  // Isolate corner 8 before sending.
  for (const topo::NodeId v : fx.mesh.neighbors(8)) {
    net.fail_channel(fx.mesh.channel(8, v));
    net.fail_channel(fx.mesh.channel(v, 8));
  }

  svc::DeliveryReport report;
  fx.service.multicast_reliable({0, {4, 8}},
                                [&](const svc::DeliveryReport& r) { report = r; });
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 2u);
  EXPECT_EQ(report.destinations[0].node, 4u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[1].node, 8u);
  EXPECT_EQ(report.destinations[1].status, Status::kUnreachable);
  // No retry budget is burnt on a partitioned destination.
  EXPECT_EQ(report.destinations[1].attempts, 1u);
  EXPECT_TRUE(net.idle());
}

TEST(FaultService, RetryDetectsNewPartitionAsUnreachable) {
  Fixture fx(2, 2);
  worm::Network& net = fx.service.network();

  svc::DeliveryReport report;
  fx.service.multicast_reliable({0, {3}},
                                [&](const svc::DeliveryReport& r) { report = r; });
  // Cut node 3 off entirely while the worm is in flight: attempt 1 drops,
  // and the retry finds the destination unreachable.
  fx.sched.schedule_in(60e-9, [&] { net.fail_node(3); });
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].status, Status::kUnreachable);
  EXPECT_EQ(report.destinations[0].attempts, 2u);
  EXPECT_TRUE(net.idle());
}

TEST(FaultService, TimeoutAbortsBlockedAttemptAndReportsDropped) {
  // Two nodes, one link.  A long bulk message occupies the only channel for
  // ~100us; the reliable message behind it times out at 20us with no retry
  // budget left, so it must finish as kDropped -- and the run must end.
  worm::WormholeParams params;
  params.message_flits = 2000;
  Fixture fx(2, 1, params);

  bool bulk_done = false;
  fx.service.multicast({0, {1}}, {}, [&](double) { bulk_done = true; });

  svc::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.timeout_s = 20e-6;
  svc::DeliveryReport report;
  bool reported = false;
  fx.service.multicast_reliable(
      {0, {1}},
      [&](const svc::DeliveryReport& r) {
        report = r;
        reported = true;
      },
      policy);
  fx.sched.run();

  EXPECT_TRUE(bulk_done);
  ASSERT_TRUE(reported);
  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].status, Status::kDropped);
  EXPECT_NEAR(report.finished_at_s, 20e-6, 1e-9);  // settled by the timeout
  EXPECT_TRUE(fx.service.network().idle());
  EXPECT_EQ(fx.service.network().worms_killed(), 1u);
}

TEST(FaultService, RetryPolicyValidationNamesTheField) {
  const auto message_of = [](svc::RetryPolicy p) {
    try {
      p.validate();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  svc::RetryPolicy p;
  EXPECT_EQ(message_of(p), "");  // defaults are valid

  p = svc::RetryPolicy{};
  p.max_attempts = 0;
  EXPECT_NE(message_of(p).find("max_attempts"), std::string::npos);

  p = svc::RetryPolicy{};
  p.timeout_s = 0.0;
  EXPECT_NE(message_of(p).find("timeout_s"), std::string::npos);
  p.timeout_s = -1.0;
  EXPECT_NE(message_of(p).find("timeout_s"), std::string::npos);

  p = svc::RetryPolicy{};
  p.backoff_initial_s = 0.0;
  EXPECT_NE(message_of(p).find("backoff_initial_s"), std::string::npos);

  p = svc::RetryPolicy{};
  p.backoff_factor = 0.5;
  EXPECT_NE(message_of(p).find("backoff_factor"), std::string::npos);

  p = svc::RetryPolicy{};
  p.jitter = 1.0;
  EXPECT_NE(message_of(p).find("jitter"), std::string::npos);
  p.jitter = -0.1;
  EXPECT_NE(message_of(p).find("jitter"), std::string::npos);

  // The backoff before attempt 4 (40us * 1e600) overflows to +inf: that
  // attempt would be scheduled at infinity and drag the clock with it.
  p = svc::RetryPolicy{};
  p.max_attempts = 4;
  p.timeout_s = 20e-6;
  p.backoff_initial_s = 40e-6;
  p.backoff_factor = 1e300;
  const std::string overflow = message_of(p);
  EXPECT_NE(overflow.find("backoff_factor"), std::string::npos) << overflow;
  EXPECT_NE(overflow.find("attempt 4"), std::string::npos) << overflow;
  p.max_attempts = 1;  // no backoff is ever taken
  EXPECT_EQ(message_of(p), "");

  // Every wait is finite (1e308, then 1.5e308), but attempt 3 is scheduled
  // at their sum: the clock carries the earlier waits.
  p = svc::RetryPolicy{};
  p.max_attempts = 3;
  p.backoff_initial_s = 1e308;
  p.backoff_factor = 1.5;
  const std::string sum = message_of(p);
  EXPECT_NE(sum.find("backoff_factor"), std::string::npos) << sum;
  EXPECT_NE(sum.find("attempt 3"), std::string::npos) << sum;

  // Constant backoff with all but unlimited attempts spans finite time.
  p = svc::RetryPolicy{};
  p.max_attempts = std::numeric_limits<std::uint32_t>::max();
  p.backoff_factor = 1.0;
  EXPECT_EQ(message_of(p), "");

  // test_group's 16-attempt policy: its longest backoff is 50us * 2^14.
  p = svc::RetryPolicy{};
  p.max_attempts = 16;
  p.timeout_s = 500e-6;
  EXPECT_EQ(message_of(p), "");
}

// Attempt accounting: a destination delivered on attempt n after earlier
// timeouts must report attempts == n, not 1.
TEST(FaultService, AttemptCountSurvivesEarlierTimeouts) {
  // Two nodes, one link.  Three bulk messages occupy the only channel for
  // ~300us; the reliable message times out twice and lands on attempt 3.
  worm::WormholeParams params;
  params.message_flits = 2000;
  Fixture fx(2, 1, params);

  fx.service.multicast({0, {1}});
  fx.service.multicast({0, {1}});
  fx.service.multicast({0, {1}});

  svc::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.timeout_s = 150e-6;
  policy.backoff_initial_s = 50e-6;
  svc::DeliveryReport report;
  std::vector<std::pair<topo::NodeId, double>> deliveries;
  fx.service.multicast_reliable(
      {0, {1}}, [&](const svc::DeliveryReport& r) { report = r; }, policy,
      [&](topo::NodeId dest, double latency) { deliveries.emplace_back(dest, latency); });
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[0].attempts, 3u);
  EXPECT_EQ(report.attempts_used, 3u);
  // The per-delivery callback fired exactly once, before the report.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].first, 1u);
  EXPECT_GT(deliveries[0].second, 0.0);
}

TEST(FaultService, PerDestinationAttemptsAreIndependent) {
  // Path 0-1-2, source 1.  Bulk traffic blocks 1->2, so destination 2
  // needs a retry while destination 0 delivers on attempt 1; the report
  // must keep the two attempt counts apart.
  worm::WormholeParams params;
  params.message_flits = 2000;
  Fixture fx(3, 1, params);

  fx.service.multicast({1, {2}});
  fx.service.multicast({1, {2}});

  svc::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.timeout_s = 150e-6;
  policy.backoff_initial_s = 50e-6;
  svc::DeliveryReport report;
  fx.service.multicast_reliable({1, {0, 2}},
                                [&](const svc::DeliveryReport& r) { report = r; }, policy);
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 2u);
  EXPECT_EQ(report.destinations[0].node, 0u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[0].attempts, 1u);
  EXPECT_EQ(report.destinations[1].node, 2u);
  EXPECT_EQ(report.destinations[1].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[1].attempts, 2u);
  EXPECT_EQ(report.attempts_used, 2u);
}

// Regression: Network::inject() completes a message synchronously when
// every worm dies at injection (route through already-failed hardware via
// a non-fault-aware router).  The service must pre-register its callbacks
// or the completion is silently lost and the done callback never fires.
TEST(FaultService, SynchronousInjectDeathStillFiresCallbacks) {
  const topo::Mesh2D mesh(3, 1);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);
  evsim::Scheduler sched;
  svc::MulticastService service(*plain, worm::WormholeParams{}, sched);

  // The plain router does not see faults, so the route 0->1->2 crosses the
  // failed middle node and every worm is killed inside inject().
  service.network().fail_node(1);

  bool done = false;
  int delivered = 0;
  service.multicast({0, {2}}, [&](topo::NodeId, double) { ++delivered; },
                    [&](double) { done = true; });
  sched.run();

  EXPECT_TRUE(done);  // previously lost: the completion fired mid-inject
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(service.network().idle());
}

// Backoff jitter: deterministic per (jitter_seed, operation), and it must
// actually move the retry instants.
TEST(FaultService, RetryJitterIsDeterministicAndSpreadsBackoff) {
  const auto finish_time = [](double jitter, std::uint64_t seed, std::uint32_t attempts) {
    worm::WormholeParams params;
    params.message_flits = 4000;  // blocks the only link past every retry
    Fixture fx(2, 1, params);
    fx.service.multicast({0, {1}});

    svc::RetryPolicy policy;
    policy.max_attempts = attempts;
    policy.timeout_s = 20e-6;
    policy.backoff_initial_s = 40e-6;
    policy.backoff_factor = 2.0;
    policy.jitter = jitter;
    policy.jitter_seed = seed;
    double finished = -1.0;
    fx.service.multicast_reliable(
        {0, {1}}, [&](const svc::DeliveryReport& r) { finished = r.finished_at_s; },
        policy);
    fx.sched.run_until(1e-3);
    return finished;
  };

  // No jitter: timeouts at 20us + backoffs of 40us and 80us => 180us.
  EXPECT_NEAR(finish_time(0.0, 1, 3), 180e-6, 1e-9);

  const double a = finish_time(0.4, 1, 3);
  const double b = finish_time(0.4, 1, 3);
  const double c = finish_time(0.4, 2, 3);
  EXPECT_EQ(a, b);        // same seed: exact replay
  EXPECT_NE(a, c);        // different seed: different backoff draws
  EXPECT_NE(a, 180e-6);   // jitter actually moved the schedule
  // Total delay stays within the +-40% envelope of the 120us of backoff.
  EXPECT_GT(a, 60e-6 + 0.6 * 120e-6 - 1e-9);
  EXPECT_LT(a, 60e-6 + 1.4 * 120e-6 + 1e-9);

  // The exact draws of the (jitter_seed, operation id) stream, pinned; the
  // 4-attempt case reaches its third draw.
  EXPECT_EQ(a, 0.00016337731900896256);
  EXPECT_EQ(c, 0.00014035813372508286);
  EXPECT_EQ(finish_time(0.4, 1, 4), 0.00031928988414121011);
}

TEST(FaultService, ReliableRequiresFaultRouter) {
  const topo::Mesh2D mesh(3, 3);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);
  evsim::Scheduler sched;
  svc::MulticastService service(*plain, worm::WormholeParams{}, sched);
  EXPECT_THROW(service.multicast_reliable({0, {4}}, {}), std::logic_error);
  EXPECT_THROW(
      {
        Fixture fx(2, 2);
        svc::RetryPolicy bad;
        bad.max_attempts = 0;
        fx.service.multicast_reliable({0, {3}}, {}, bad);
      },
      std::invalid_argument);
}

// One full sweep under a random failure schedule; returns per-destination
// (node, status, attempts) tuples of every report, in issue order.
std::vector<std::tuple<topo::NodeId, Status, std::uint32_t>> run_sweep(std::uint64_t seed) {
  Fixture fx(4, 4);
  const fault::FaultPlan plan =
      fault::FaultPlan::random_link_failures(fx.mesh, 0.3, 0.0, 200e-6, seed);
  fault::schedule_fault_plan(fx.service.network(), fx.sched, plan);

  evsim::Rng rng(seed * 977 + 1);
  std::vector<std::tuple<topo::NodeId, Status, std::uint32_t>> out;
  int reports = 0;
  constexpr int kMessages = 24;
  for (int i = 0; i < kMessages; ++i) {
    const double t = static_cast<double>(i) * 12e-6;
    const topo::NodeId src = rng.uniform_int(0, 15);
    const auto dests = rng.sample_destinations(16, src, rng.uniform_int(1, 5));
    fx.sched.schedule_at(t, [&fx, &out, &reports, src, dests] {
      if (fx.service.network().faults().node_failed(src)) {
        ++reports;  // link failures only in this plan, but stay defensive
        return;
      }
      fx.service.multicast_reliable({src, dests}, [&](const svc::DeliveryReport& r) {
        ++reports;
        for (const auto& d : r.destinations) {
          out.emplace_back(d.node, d.status, d.attempts);
        }
      });
    });
  }
  fx.sched.run();  // must terminate: no reliable message may hang
  EXPECT_EQ(reports, kMessages);
  EXPECT_TRUE(fx.service.network().idle());
  return out;
}

TEST(FaultService, RandomFailureSweepTerminatesAndIsDeterministic) {
  const auto a = run_sweep(5);
  const auto b = run_sweep(5);
  EXPECT_EQ(a, b);  // same seed, same failures, same reports
  EXPECT_FALSE(a.empty());

  std::size_t delivered = 0;
  for (const auto& [node, status, attempts] : a) delivered += status == Status::kDelivered;
  // The mesh stays mostly connected at 30% cut links; most sends land.
  EXPECT_GT(delivered, a.size() / 2);
}

}  // namespace
