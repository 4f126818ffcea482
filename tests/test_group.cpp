// GroupService: versioned membership views, ring-buffer sender windows,
// in-order delivery, and the heartbeat failure detector.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "fault/fault_router.hpp"
#include "obs/metrics.hpp"
#include "service/churn.hpp"
#include "service/group_service.hpp"
#include "topology/mesh2d.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

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

TEST(GroupConfig, ValidationRejectsBadFields) {
  Fixture fx(2, 2);

  svc::GroupConfig c;
  c.window_size = 0;
  try {
    svc::GroupService bad(fx.service, c);
    FAIL() << "window_size=0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("window_size"), std::string::npos);
  }

  c = svc::GroupConfig{};
  c.heartbeat_period_s = 0.0;
  EXPECT_THROW(svc::GroupService(fx.service, c), std::invalid_argument);

  c = svc::GroupConfig{};
  c.sweep_period_s = -1e-6;
  EXPECT_THROW(svc::GroupService(fx.service, c), std::invalid_argument);

  // The suspicion floor may not undercut the heartbeat period.
  c = svc::GroupConfig{};
  c.suspicion_min_timeout_s = c.heartbeat_period_s / 2;
  EXPECT_THROW(svc::GroupService(fx.service, c), std::invalid_argument);

  c = svc::GroupConfig{};
  c.phi_threshold = 0.5;
  EXPECT_THROW(svc::GroupService(fx.service, c), std::invalid_argument);

  // A bad nested retry policy surfaces through the same validation.
  c = svc::GroupConfig{};
  c.retry.max_attempts = 0;
  EXPECT_THROW(svc::GroupService(fx.service, c), std::invalid_argument);
}

TEST(GroupService, RequiresFaultAwareService) {
  const topo::Mesh2D mesh(2, 2);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);
  evsim::Scheduler sched;
  svc::MulticastService service(*plain, worm::WormholeParams{}, sched);
  EXPECT_THROW(svc::GroupService groups(service), std::logic_error);
}

TEST(GroupService, CreateGroupInstallsViewOne) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);

  const auto gid = groups.create_group({10, 0, 5, 10});  // unsorted, with a dup
  const auto& v = groups.view(gid);
  EXPECT_EQ(v.id, 1u);
  EXPECT_EQ(v.members, (std::vector<topo::NodeId>{0, 5, 10}));
  EXPECT_EQ(v.coordinator(), 0u);
  EXPECT_TRUE(v.contains(5));
  EXPECT_FALSE(v.contains(3));
  EXPECT_EQ(groups.view_history(gid).size(), 1u);

  EXPECT_THROW(groups.create_group({}), std::invalid_argument);
  EXPECT_THROW(groups.create_group({0, 99}), std::invalid_argument);
  EXPECT_THROW((void)groups.view(999), std::invalid_argument);
}

TEST(GroupService, JoinLeaveInstallMonotoneViews) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);

  std::vector<std::pair<svc::ViewId, std::size_t>> seen;
  groups.on_view_change([&](svc::GroupId, const svc::MembershipView& v) {
    seen.emplace_back(v.id, v.members.size());
  });

  const auto gid = groups.create_group({0, 5});
  groups.join(gid, 10);
  EXPECT_EQ(groups.view(gid).id, 2u);
  EXPECT_TRUE(groups.view(gid).contains(10));
  EXPECT_THROW(groups.join(gid, 10), std::invalid_argument);
  EXPECT_THROW(groups.join(gid, 99), std::invalid_argument);

  groups.leave(gid, 5);
  EXPECT_EQ(groups.view(gid).id, 3u);
  EXPECT_FALSE(groups.view(gid).contains(5));
  EXPECT_THROW(groups.leave(gid, 5), std::invalid_argument);

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<svc::ViewId, std::size_t>{1u, 2u}));
  EXPECT_EQ(seen[1], (std::pair<svc::ViewId, std::size_t>{2u, 3u}));
  EXPECT_EQ(seen[2], (std::pair<svc::ViewId, std::size_t>{3u, 2u}));

  const auto& hist = groups.view_history(gid);
  ASSERT_EQ(hist.size(), 3u);
  for (std::size_t i = 1; i < hist.size(); ++i) {
    EXPECT_EQ(hist[i].id, hist[i - 1].id + 1);
    EXPECT_GE(hist[i].fault_epoch, hist[i - 1].fault_epoch);
  }

  EXPECT_EQ(groups.stats().joins, 1u);
  EXPECT_EQ(groups.stats().leaves, 1u);
  EXPECT_EQ(groups.stats().view_installs, 3u);
}

TEST(GroupService, SendDeliversInViewAndInOrder) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});

  // (receiver, sender, seq) in callback order; per (receiver, sender) the
  // seqs must come out 0, 1, 2, ... regardless of network reordering.
  std::vector<std::tuple<topo::NodeId, topo::NodeId, svc::SeqNum>> app;
  groups.on_app_delivery([&](svc::GroupId, topo::NodeId recv, topo::NodeId snd,
                             svc::SeqNum seq, svc::ViewId) {
    app.emplace_back(recv, snd, seq);
  });

  constexpr int kSends = 6;
  int reports = 0;
  for (int i = 0; i < kSends; ++i) {
    const auto seq = groups.send(gid, 0, [&](const svc::GroupSendReport& r) {
      ++reports;
      EXPECT_EQ(r.view, 1u);
      EXPECT_TRUE(r.stable_in_view);
      EXPECT_EQ(r.destinations.size(), 3u);
      EXPECT_EQ(r.delivered_in_view(), 3u);
      for (const auto& d : r.destinations) EXPECT_GT(d.latency_s, 0.0);
    });
    EXPECT_EQ(seq, static_cast<svc::SeqNum>(i));
  }
  fx.sched.schedule_at(2e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_EQ(reports, kSends);
  EXPECT_EQ(app.size(), static_cast<std::size_t>(kSends) * 3u);
  std::map<topo::NodeId, svc::SeqNum> next;
  for (const auto& [recv, snd, seq] : app) {
    EXPECT_EQ(snd, 0u);
    EXPECT_EQ(seq, next[recv]) << "out-of-order delivery at node " << recv;
    next[recv] = seq + 1;
  }
  EXPECT_EQ(groups.stats().delivered_in_view, static_cast<std::size_t>(kSends) * 3u);
  EXPECT_EQ(groups.stats().dropped, 0u);
  EXPECT_TRUE(fx.service.network().idle());
}

TEST(GroupService, SingletonGroupSendIsTriviallyStable) {
  Fixture fx(2, 2);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({3});
  bool reported = false;
  groups.send(gid, 3, [&](const svc::GroupSendReport& r) {
    reported = true;
    EXPECT_TRUE(r.stable_in_view);
    EXPECT_TRUE(r.destinations.empty());
  });
  EXPECT_TRUE(reported);  // no destinations: stable synchronously
  EXPECT_THROW(groups.send(gid, 0, {}), std::invalid_argument);  // non-member
}

TEST(GroupService, WindowStallsAtCapacityAndDrains) {
  Fixture fx(4, 4);
  svc::GroupConfig cfg;
  cfg.window_size = 2;
  svc::GroupService groups(fx.service, cfg);
  obs::MetricsRegistry reg;
  groups.set_metrics(&reg);

  const auto gid = groups.create_group({0, 5, 10});
  int reports = 0;
  constexpr int kSends = 6;
  for (int i = 0; i < kSends; ++i) {
    groups.send(gid, 0, [&](const svc::GroupSendReport&) { ++reports; });
  }
  // Two slots in flight, the rest queued; the sender counts as stalled.
  EXPECT_EQ(groups.in_flight(gid, 0), 2u);
  EXPECT_EQ(groups.queued(gid, 0), 4u);
  EXPECT_EQ(groups.stalled_senders(), 1u);
  EXPECT_EQ(groups.stats().window_stalls, 4u);
  EXPECT_EQ(reg.counter("group.window_stalls").value(), 4u);
  EXPECT_EQ(reg.gauge("group.window_stalled").value(), 1.0);

  fx.sched.schedule_at(2e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_EQ(reports, kSends);
  EXPECT_EQ(groups.in_flight(gid, 0), 0u);
  EXPECT_EQ(groups.queued(gid, 0), 0u);
  EXPECT_EQ(groups.stalled_senders(), 0u);
  EXPECT_EQ(reg.gauge("group.window_stalled").value(), 0.0);
  EXPECT_EQ(reg.counter("group.sends").value(), static_cast<std::uint64_t>(kSends));
  EXPECT_GT(reg.histogram("group.stability_latency_s").count(), 0u);
}

TEST(GroupService, DetectorEvictsCrashedMember) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 1, 2, 3, 5});

  fx.sched.schedule_at(200e-6, [&] { fx.service.network().fail_node(5); });
  fx.sched.schedule_at(5e-3, [&] { groups.stop(); });
  fx.sched.run();

  const auto& v = groups.view(gid);
  EXPECT_EQ(v.id, 2u);
  EXPECT_FALSE(v.contains(5));
  EXPECT_EQ(v.members.size(), 4u);
  EXPECT_EQ(groups.stats().evictions, 1u);
  EXPECT_EQ(groups.stats().false_positive_evictions, 0u);
  EXPECT_GE(groups.stats().suspicions, 3u);  // majority of the 4 survivors
  // The eviction view carries the post-crash fault epoch.
  EXPECT_GT(groups.view_history(gid).back().fault_epoch,
            groups.view_history(gid).front().fault_epoch);
  // Eviction happened after the suspicion floor, not instantly.
  EXPECT_GT(v.installed_at_s, 200e-6);
}

TEST(GroupService, IsolatedLiveMemberCountsAsFalsePositive) {
  Fixture fx(3, 3);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 4, 8});

  // Cut every link of corner 8: the node is alive but mute, so its
  // eviction is (by ground truth) a false positive.
  fx.sched.schedule_at(100e-6, [&] {
    for (const topo::NodeId v : fx.mesh.neighbors(8)) {
      fx.service.network().fail_channel(fx.mesh.channel(8, v));
      fx.service.network().fail_channel(fx.mesh.channel(v, 8));
    }
  });
  fx.sched.schedule_at(5e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_FALSE(groups.view(gid).contains(8));
  EXPECT_EQ(groups.stats().evictions, 1u);
  EXPECT_EQ(groups.stats().false_positive_evictions, 1u);
}

TEST(GroupService, DeadDestinationResolvesUnreachableBeforeEviction) {
  // A crashed node is *unreachable* at routing time, so the message
  // stabilises long before the detector evicts it -- and because the dead
  // node is still a member at stability time, stability is not in-view.
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10});
  fx.service.network().fail_node(10);

  svc::GroupSendReport report;
  bool reported = false;
  groups.send(gid, 0, [&](const svc::GroupSendReport& r) {
    report = r;
    reported = true;
  });
  fx.sched.schedule_at(5e-3, [&] { groups.stop(); });
  fx.sched.run();

  ASSERT_TRUE(reported);
  ASSERT_EQ(report.destinations.size(), 2u);
  EXPECT_EQ(report.destinations[0].outcome, svc::GroupOutcome::kDeliveredInView);
  EXPECT_EQ(report.destinations[1].node, 10u);
  EXPECT_EQ(report.destinations[1].outcome, svc::GroupOutcome::kUnreachable);
  EXPECT_FALSE(report.stable_in_view);  // node 10 was still a member then
  EXPECT_FALSE(groups.view(gid).contains(10));  // ... and got evicted later
}

TEST(GroupService, EvictionReleasesBlockedWindow) {
  // Two nodes, one link each way, both buried under bulk traffic for over
  // a millisecond: heartbeats and group sends all time out, so each
  // member evicts the other (silence, not death).  The eviction must make
  // the blocked messages stable and clear the stall -- far sooner than
  // the 16-attempt retry budget (~8ms) could.
  worm::WormholeParams params;
  params.message_flits = 4000;  // ~200us channel occupancy per message
  Fixture fx(2, 1, params);
  svc::GroupConfig cfg;
  cfg.window_size = 1;
  cfg.retry.max_attempts = 16;
  cfg.retry.timeout_s = 500e-6;
  svc::GroupService groups(fx.service, cfg);
  const auto gid = groups.create_group({0, 1});
  for (int i = 0; i < 6; ++i) {
    fx.service.multicast({0, {1}});
    fx.service.multicast({1, {0}});
  }

  std::vector<svc::GroupSendReport> reports;
  groups.send(gid, 0, [&](const svc::GroupSendReport& r) { reports.push_back(r); });
  groups.send(gid, 0, [&](const svc::GroupSendReport& r) { reports.push_back(r); });
  EXPECT_EQ(groups.in_flight(gid, 0), 1u);
  EXPECT_EQ(groups.queued(gid, 0), 1u);
  EXPECT_EQ(groups.stalled_senders(), 1u);

  fx.sched.schedule_at(20e-3, [&] { groups.stop(); });
  fx.sched.run();

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_GE(groups.stats().evictions, 1u);
  EXPECT_GE(groups.stats().false_positive_evictions, 1u);  // nobody died
  EXPECT_EQ(groups.stalled_senders(), 0u);
  EXPECT_EQ(groups.queued(gid, 0), 0u);
  EXPECT_EQ(groups.in_flight(gid, 0), 0u);
  // The first send was in flight toward the (now evicted) peer; the
  // queued one launched only after the view emptied, so it owes nobody.
  ASSERT_EQ(reports[0].destinations.size(), 1u);
  EXPECT_NE(reports[0].destinations[0].outcome, svc::GroupOutcome::kDeliveredInView);
  EXPECT_TRUE(reports[1].destinations.empty());
  for (const auto& r : reports) {
    // Stability came from the eviction, not from draining the retry
    // budget (16 attempts x ~500us would run past 8ms).
    EXPECT_LT(r.stable_at_s, 2e-3);
  }
}

// One deterministic scenario: create, send under load, crash, evict,
// rejoin after recovery.  The digest must replay exactly.
std::vector<std::tuple<svc::ViewId, std::size_t, std::uint64_t>> run_scenario() {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 1, 2, 3});
  for (int i = 0; i < 8; ++i) {
    fx.sched.schedule_at(static_cast<double>(i) * 40e-6,
                         [&groups, gid, i] { groups.send(gid, i % 2 == 0 ? 0 : 1, {}); });
  }
  fx.sched.schedule_at(150e-6, [&] { fx.service.network().fail_node(3); });
  fx.sched.schedule_at(2e-3, [&] { fx.service.network().recover_node(3); });
  fx.sched.schedule_at(2.2e-3, [&groups, gid] {
    if (!groups.view(gid).contains(3)) groups.join(gid, 3);
  });
  fx.sched.schedule_at(5e-3, [&] { groups.stop(); });
  fx.sched.run();

  std::vector<std::tuple<svc::ViewId, std::size_t, std::uint64_t>> digest;
  for (const auto& v : groups.view_history(gid)) {
    digest.emplace_back(v.id, v.members.size(), v.fault_epoch);
  }
  digest.emplace_back(0, groups.stats().delivered_in_view, groups.stats().evictions);
  return digest;
}

TEST(GroupService, ScenarioReplaysDeterministically) {
  const auto a = run_scenario();
  const auto b = run_scenario();
  EXPECT_EQ(a, b);
  EXPECT_GE(a.size(), 3u);  // view 1, the eviction, the rejoin
}

TEST(GroupService, SendToSubsetDeliversOnlyToTargetsAndPlugsHoles) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});

  // receiver -> sequence numbers surfaced, in order.
  std::map<topo::NodeId, std::vector<svc::SeqNum>> seen;
  groups.on_app_delivery([&](svc::GroupId, topo::NodeId recv, topo::NodeId,
                             svc::SeqNum seq, svc::ViewId) {
    seen[recv].push_back(seq);
  });

  svc::GroupSendReport subset_report;
  bool reported = false;
  const auto s0 = groups.send_to(gid, 0, {5}, [&](const svc::GroupSendReport& r) {
    subset_report = r;
    reported = true;
  });
  const auto s1 = groups.send(gid, 0);  // whole group
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);

  fx.sched.schedule_at(5e-3, [&] { groups.stop(); });
  fx.sched.run();

  // The subset send reports exactly its target.
  ASSERT_TRUE(reported);
  ASSERT_EQ(subset_report.destinations.size(), 1u);
  EXPECT_EQ(subset_report.destinations[0].node, 5u);
  EXPECT_EQ(subset_report.destinations[0].outcome, svc::GroupOutcome::kDeliveredInView);
  EXPECT_TRUE(subset_report.stable_in_view);

  // The target saw both sequences in order; non-targets saw seq 0 as a
  // plugged hole and surfaced seq 1 without wedging behind it.
  EXPECT_EQ(seen[5], (std::vector<svc::SeqNum>{0, 1}));
  EXPECT_EQ(seen[10], (std::vector<svc::SeqNum>{1}));
  EXPECT_EQ(seen[15], (std::vector<svc::SeqNum>{1}));
}

TEST(GroupService, SendToValidatesDestinations) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10});

  EXPECT_THROW(groups.send_to(gid, 0, {}), std::invalid_argument);
  EXPECT_THROW(groups.send_to(gid, 0, {0}), std::invalid_argument);    // self
  EXPECT_THROW(groups.send_to(gid, 0, {7}), std::invalid_argument);    // non-member
  EXPECT_THROW(groups.send_to(gid, 7, {5}), std::invalid_argument);    // bad sender
  EXPECT_THROW(groups.send_to(gid, 0, {5, 7}), std::invalid_argument); // mixed

  // Duplicates dedupe to a single destination.
  svc::GroupSendReport report;
  groups.send_to(gid, 0, {5, 5, 5}, [&](const svc::GroupSendReport& r) { report = r; });
  fx.sched.schedule_at(5e-3, [&] { groups.stop(); });
  fx.sched.run();
  EXPECT_EQ(report.destinations.size(), 1u);
}

TEST(GroupService, JoinerInFlightSendsSurviveRejoin) {
  // Regression: node 5 launches sends, then leaves and rejoins while they
  // are still in flight.  Its messages still owe the continuous members,
  // so their streams must keep surfacing them -- the pre-fix joiner reset
  // clobbered every {peer, joiner} stream to the joiner's next_seq and
  // silently discarded all three.
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10});

  std::map<topo::NodeId, std::vector<svc::SeqNum>> from5;
  groups.on_app_delivery([&](svc::GroupId, topo::NodeId recv, topo::NodeId snd,
                             svc::SeqNum seq, svc::ViewId) {
    if (snd == 5) from5[recv].push_back(seq);
  });

  for (int i = 0; i < 3; ++i) groups.send(gid, 5);
  groups.leave(gid, 5);
  groups.join(gid, 5);
  groups.send(gid, 5);  // post-rejoin send continues the same stream

  fx.sched.schedule_at(10e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_EQ(from5[0], (std::vector<svc::SeqNum>{0, 1, 2, 3}));
  EXPECT_EQ(from5[10], (std::vector<svc::SeqNum>{0, 1, 2, 3}));
  EXPECT_EQ(groups.in_flight(gid, 5), 0u);
}

TEST(GroupService, JoinerResetIsReentrantAcrossConsecutiveInstalls) {
  // The same node joining in two consecutive view installs (evict + rejoin
  // before hearing any sequence) must behave exactly like a single join.
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10});

  std::map<topo::NodeId, std::vector<svc::SeqNum>> from5;
  groups.on_app_delivery([&](svc::GroupId, topo::NodeId recv, topo::NodeId snd,
                             svc::SeqNum seq, svc::ViewId) {
    if (snd == 5) from5[recv].push_back(seq);
  });

  for (int i = 0; i < 3; ++i) groups.send(gid, 5);
  groups.leave(gid, 5);
  groups.join(gid, 5);
  groups.leave(gid, 5);  // second churn round before anything delivered
  groups.join(gid, 5);
  groups.send(gid, 5);

  fx.sched.schedule_at(10e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_EQ(groups.view(gid).id, 5u);  // create + 4 installs
  EXPECT_EQ(from5[0], (std::vector<svc::SeqNum>{0, 1, 2, 3}));
  EXPECT_EQ(from5[10], (std::vector<svc::SeqNum>{0, 1, 2, 3}));
  EXPECT_EQ(groups.stalled_senders(), 0u);
}

TEST(GroupService, DeliveryAndViewSettledHooksFireAndRemove) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);

  std::uint64_t app_count = 0;
  groups.on_app_delivery(
      [&](svc::GroupId, topo::NodeId, topo::NodeId, svc::SeqNum, svc::ViewId) {
        ++app_count;
      });
  svc::ViewId last_change_view = 0;
  groups.on_view_change(
      [&](svc::GroupId, const svc::MembershipView& v) { last_change_view = v.id; });

  std::uint64_t hook_deliveries = 0;
  const auto dh = groups.add_delivery_hook(
      [&](svc::GroupId, topo::NodeId, topo::NodeId, svc::SeqNum, svc::ViewId) {
        ++hook_deliveries;
      });
  std::vector<svc::ViewId> settled;
  const auto vh = groups.add_view_settled_hook(
      [&](svc::GroupId, const svc::MembershipView& v) {
        // Settles strictly after the view-change callback for the same view.
        EXPECT_EQ(last_change_view, v.id);
        settled.push_back(v.id);
      });

  const auto gid = groups.create_group({0, 5, 10});
  groups.send(gid, 0);
  groups.join(gid, 15);
  fx.sched.schedule_at(5e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_EQ(settled, (std::vector<svc::ViewId>{1, 2}));
  EXPECT_GT(hook_deliveries, 0u);
  EXPECT_EQ(hook_deliveries, app_count);  // hooks mirror every in-order delivery

  // Removed hooks go quiet; the application callbacks keep firing.
  groups.remove_delivery_hook(dh);
  groups.remove_view_settled_hook(vh);
  const std::uint64_t hook_before = hook_deliveries;
  const std::uint64_t app_before = app_count;
  evsim::Scheduler& sched = fx.sched;
  groups.send(gid, 5);
  groups.leave(gid, 15);
  sched.schedule_at(sched.now() + 5e-3, [&] { groups.stop(); });
  fx.sched.run();
  EXPECT_EQ(hook_deliveries, hook_before);
  EXPECT_EQ(settled.size(), 2u);
  EXPECT_GT(app_count, app_before);
}

// FNV-1a over the little-endian bytes of `v`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(GroupService, ChurnDeliveryOrderIsPinned) {
  // Seeded churn on 8x8 -- joins of nodes that were never members, leaves
  // and crashes -- under full-group and subset sends from rotating
  // members.  Per (receiver, sender) the surfaced seqs must strictly
  // increase, an oracle that does not read the stream code; the whole
  // (receiver, sender, seq, view) delivery sequence is pinned by count and
  // hash, so a change to how streams are stored cannot reorder, drop or
  // add a delivery unnoticed.  Every send report (sender, seq, view,
  // stability time, each destination's outcome) and every installed view
  // (id, members) are pinned the same way, so a change to how sender
  // windows, incarnations or detector tracks are stored cannot move a
  // report, an eviction or an install either.
  Fixture fx(8, 8);
  svc::GroupConfig cfg;
  cfg.window_size = 4;
  // Heartbeats slow enough that the detector evicts crashed members, not
  // congested live ones.
  cfg.heartbeat_period_s = 500e-6;
  cfg.sweep_period_s = 500e-6;
  cfg.suspicion_min_timeout_s = 3e-3;
  svc::GroupService groups(fx.service, cfg);

  std::vector<topo::NodeId> init;
  for (topo::NodeId n = 0; n < 64; n += 4) init.push_back(n);
  std::vector<topo::NodeId> cand;
  for (topo::NodeId n = 0; n < 64; ++n) cand.push_back(n);
  const auto gid = groups.create_group(init);

  svc::ChurnConfig cc;
  cc.t_begin_s = 100e-6;
  cc.t_end_s = 2e-3;
  cc.events_per_s = 6e3;
  cc.seed = 2;
  const auto schedule = svc::ChurnSchedule::random(init, cand, cc);
  std::set<topo::NodeId> ever(init.begin(), init.end());
  std::size_t fresh_joins = 0;
  for (const svc::ChurnEvent& e : schedule.events) {
    if (e.kind == svc::ChurnEvent::Kind::kJoin && ever.insert(e.node).second) ++fresh_joins;
  }
  ASSERT_GE(fresh_joins, 2u);
  ASSERT_GE(schedule.count(svc::ChurnEvent::Kind::kLeave), 1u);
  ASSERT_GE(schedule.count(svc::ChurnEvent::Kind::kCrash), 1u);
  schedule_churn(groups, gid, fx.sched, schedule);

  std::map<std::pair<topo::NodeId, topo::NodeId>, svc::SeqNum> last;
  std::uint64_t deliveries = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  groups.on_app_delivery([&](svc::GroupId, topo::NodeId recv, topo::NodeId snd,
                             svc::SeqNum seq, svc::ViewId view) {
    const auto [it, first] = last.try_emplace({recv, snd}, seq);
    if (!first) {
      EXPECT_GT(seq, it->second) << "stream " << snd << " -> " << recv;
      it->second = seq;
    }
    ++deliveries;
    for (const std::uint64_t v : {std::uint64_t{recv}, std::uint64_t{snd}, seq, view}) {
      hash = fnv1a(hash, v);
    }
  });

  std::uint64_t reports = 0;
  std::uint64_t report_hash = 0xcbf29ce484222325ULL;
  const svc::GroupService::ReportFn on_report = [&](const svc::GroupSendReport& r) {
    ++reports;
    for (const std::uint64_t v : {std::uint64_t{r.sender}, r.seq, r.view,
                                  std::bit_cast<std::uint64_t>(r.stable_at_s),
                                  std::uint64_t{r.destinations.size()}}) {
      report_hash = fnv1a(report_hash, v);
    }
    for (const svc::GroupSendReport::Destination& d : r.destinations) {
      report_hash = fnv1a(report_hash, d.node);
      report_hash = fnv1a(report_hash, static_cast<std::uint64_t>(d.outcome));
    }
  };

  // Every 30us a random member sends: to the whole group on even ticks, to
  // a random half of the other members on odd ones.
  evsim::Rng rng(11);
  std::function<void(int)> pump = [&](int tick) {
    const double t = 120e-6 + 30e-6 * tick;
    if (t >= cc.t_end_s) return;
    fx.sched.schedule_at(t, [&groups, gid, &rng, &pump, &on_report, tick] {
      const auto& members = groups.view(gid).members;
      const topo::NodeId sender =
          members[rng.uniform_int(0, static_cast<std::uint32_t>(members.size()) - 1)];
      std::vector<topo::NodeId> dests;
      for (const topo::NodeId m : members) {
        if (m != sender && rng.uniform_int(0, 1) == 1) dests.push_back(m);
      }
      if (tick % 2 == 0 || dests.empty()) {
        groups.send(gid, sender, on_report);
      } else {
        groups.send_to(gid, sender, dests, on_report);
      }
      pump(tick + 1);
    });
  };
  pump(0);
  fx.sched.schedule_at(cc.t_end_s + 4e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_GE(groups.stats().joins, fresh_joins);
  EXPECT_EQ(groups.stats().evictions, 1u);  // the crashed member, no false positive
  EXPECT_EQ(deliveries, 749u);
  EXPECT_EQ(hash, 0xae16663996d6d782ULL);
  EXPECT_EQ(reports, groups.stats().sends);
  EXPECT_EQ(reports, 63u);
  EXPECT_EQ(report_hash, 0x5bc9e59e6bb97c8bULL);

  std::uint64_t view_hash = 0xcbf29ce484222325ULL;
  for (const svc::MembershipView& v : groups.view_history(gid)) {
    view_hash = fnv1a(view_hash, v.id);
    view_hash = fnv1a(view_hash, v.members.size());
    for (const topo::NodeId m : v.members) view_hash = fnv1a(view_hash, m);
  }
  EXPECT_EQ(groups.view_history(gid).size(), 11u);
  EXPECT_EQ(view_hash, 0x83ec2dfd17b5c2cdULL);
}

TEST(GroupService, JoinInsideDeliveryHookKeepsSurfacing) {
  // On the 4x4 mesh's boustrophedon labels, node 0's full-group send to
  // {3, 4} is one dual-path worm 0-1-2-3-7-6-5-4, while its subset send to
  // {4} takes link 0-4 directly: seq 1 reaches node 4 first and waits
  // there behind seq 0.  When seq 0 lands, node 4's stream surfaces seq 0
  // and seq 1 in one pass.  A delivery hook joins never-member 15 on seq 0,
  // which grows the group's stream storage in the middle of that pass;
  // seq 1 must still surface, and the joiner's streams must work.
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 3, 4});

  struct Surfaced {
    svc::SeqNum seq;
    svc::ViewId view;
    double t;
  };
  std::vector<Surfaced> from0_at4;
  groups.add_delivery_hook([&](svc::GroupId g, topo::NodeId recv, topo::NodeId snd,
                               svc::SeqNum seq, svc::ViewId view) {
    if (recv != 4 || snd != 0) return;
    from0_at4.push_back({seq, view, fx.sched.now()});
    if (seq == 0) groups.join(g, 15);
  });
  std::map<std::pair<topo::NodeId, topo::NodeId>, std::vector<svc::SeqNum>> seen;
  groups.on_app_delivery([&](svc::GroupId, topo::NodeId recv, topo::NodeId snd,
                             svc::SeqNum seq, svc::ViewId) {
    seen[{recv, snd}].push_back(seq);
  });

  groups.send(gid, 0);           // seq 0 to {3, 4}
  groups.send_to(gid, 0, {4});   // seq 1 to {4}; a plugged hole at 3
  fx.sched.schedule_at(1e-3, [&groups, gid] {
    groups.send(gid, 0);   // seq 2 to {3, 4, 15}
    groups.send(gid, 15);  // the joiner's seq 0 to {0, 3, 4}
  });
  fx.sched.schedule_at(3e-3, [&] { groups.stop(); });
  fx.sched.run();

  ASSERT_GE(from0_at4.size(), 2u);
  EXPECT_EQ(from0_at4[0].seq, 0u);
  EXPECT_EQ(from0_at4[0].view, 1u);
  EXPECT_EQ(from0_at4[1].seq, 1u);
  EXPECT_EQ(from0_at4[1].view, 2u);             // surfaced after the join ...
  EXPECT_EQ(from0_at4[1].t, from0_at4[0].t);    // ... in the same pass as seq 0
  EXPECT_TRUE(groups.view(gid).contains(15));

  using Seqs = std::vector<svc::SeqNum>;
  EXPECT_EQ((seen[{4, 0}]), (Seqs{0, 1, 2}));
  EXPECT_EQ((seen[{3, 0}]), (Seqs{0, 2}));
  EXPECT_EQ((seen[{15, 0}]), (Seqs{2}));  // the joiner floors at 0's next seq
  for (const topo::NodeId m : {0u, 3u, 4u}) EXPECT_EQ((seen[{m, 15}]), (Seqs{0})) << m;
}

TEST(GroupService, JoinAndSendInsideReportCallback) {
  // The topology of JoinInsideDeliveryHookKeepsSurfacing: node 0's subset
  // send to {4} (seq 1) completes before its full-group send to {1, 3, 4}
  // (seq 0, one worm 0-1-2-3-7-6-5-4), so seq 0's last delivery
  // stabilises seq 0 and seq 1 in one advance_window pass.  Seq 0's report
  // joins never-member 15, which appends a fifth member slot and a
  // pair-table shell in the middle of that pass (five entries outgrow a
  // vector's capacity of four, so storage that moves its elements would
  // leave the pass with a dangling sender state), and then sends again
  // from node 0.  Every report must fire once, in seq order, and every
  // stream must surface in order.
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 1, 3, 4});

  std::map<std::pair<topo::NodeId, topo::NodeId>, std::vector<svc::SeqNum>> seen;
  groups.on_app_delivery([&](svc::GroupId, topo::NodeId recv, topo::NodeId snd,
                             svc::SeqNum seq, svc::ViewId) {
    seen[{recv, snd}].push_back(seq);
  });
  std::vector<svc::GroupSendReport> reports;
  const svc::GroupService::ReportFn record = [&](const svc::GroupSendReport& r) {
    reports.push_back(r);
  };
  svc::SeqNum resent = 0;
  groups.send(gid, 0, [&](const svc::GroupSendReport& r) {
    record(r);
    groups.join(gid, 15);
    resent = groups.send(gid, 0, record);
  });
  groups.send_to(gid, 0, {4}, record);
  fx.sched.schedule_at(3e-3, [&] { groups.stop(); });
  fx.sched.run();

  using Outcome = svc::GroupOutcome;
  using Dests = std::vector<std::pair<topo::NodeId, Outcome>>;
  const auto dests = [](const svc::GroupSendReport& r) {
    Dests out;
    for (const auto& d : r.destinations) out.emplace_back(d.node, d.outcome);
    return out;
  };
  EXPECT_EQ(resent, 2u);
  ASSERT_EQ(reports.size(), 3u);
  for (svc::SeqNum q = 0; q < 3; ++q) {
    EXPECT_EQ(reports[q].sender, 0u);
    EXPECT_EQ(reports[q].seq, q);
    EXPECT_TRUE(reports[q].stable_in_view) << q;
  }
  EXPECT_EQ(reports[0].view, 1u);
  EXPECT_EQ(reports[1].view, 1u);
  EXPECT_EQ(reports[2].view, 2u);  // sent after the join
  EXPECT_EQ(reports[1].stable_at_s, reports[0].stable_at_s);  // one pass
  EXPECT_GT(reports[2].stable_at_s, reports[0].stable_at_s);
  const Outcome in_view = Outcome::kDeliveredInView;
  EXPECT_EQ(dests(reports[0]), (Dests{{1, in_view}, {3, in_view}, {4, in_view}}));
  EXPECT_EQ(dests(reports[1]), (Dests{{4, in_view}}));
  EXPECT_EQ(dests(reports[2]),
            (Dests{{1, in_view}, {3, in_view}, {4, in_view}, {15, in_view}}));

  using Seqs = std::vector<svc::SeqNum>;
  EXPECT_EQ((seen[{4, 0}]), (Seqs{0, 1, 2}));
  EXPECT_EQ((seen[{1, 0}]), (Seqs{0, 2}));  // seq 1 is a plugged hole at 1 and 3
  EXPECT_EQ((seen[{3, 0}]), (Seqs{0, 2}));
  EXPECT_EQ((seen[{15, 0}]), (Seqs{2}));  // the joiner floors at 0's next seq
  EXPECT_EQ(groups.in_flight(gid, 0), 0u);
  EXPECT_EQ(groups.queued(gid, 0), 0u);
}

TEST(GroupService, ManyGroupsScaleWithFlatStorage) {
  // Scaling regression for the flat per-group storage: thousands of
  // concurrent groups, one send each, must create, deliver, and drain
  // their windows without detector interference.
  Fixture fx(16, 16);
  svc::GroupConfig cfg;
  cfg.heartbeat_period_s = 10e-3;
  cfg.sweep_period_s = 10e-3;
  cfg.suspicion_min_timeout_s = 200e-3;  // unreachable within the run
  svc::GroupService groups(fx.service, cfg);

  constexpr std::uint32_t kGroups = 1600;
  std::vector<svc::GroupId> gids;
  gids.reserve(kGroups);
  std::vector<topo::NodeId> bases;
  for (std::uint32_t i = 0; i < kGroups; ++i) {
    const auto base = static_cast<topo::NodeId>((7 * i) % 253);
    bases.push_back(base);
    gids.push_back(groups.create_group({base, base + 1, base + 2}));
  }
  EXPECT_EQ(groups.num_groups(), kGroups);

  // Stagger one send per group so the mesh is loaded but not saturated.
  for (std::uint32_t i = 0; i < kGroups; ++i) {
    fx.sched.schedule_at(1e-6 * i, [&groups, gid = gids[i], base = bases[i]] {
      groups.send(gid, base);
    });
  }
  fx.sched.schedule_at(8e-3, [&] { groups.stop(); });
  fx.sched.run();

  EXPECT_EQ(groups.stats().sends, kGroups);
  EXPECT_GT(groups.stats().delivered_in_view, 0u);
  EXPECT_EQ(groups.stats().evictions, 0u);  // detector stayed quiet
  EXPECT_EQ(groups.stalled_senders(), 0u);
  for (std::uint32_t i = 0; i < kGroups; i += 97) {
    EXPECT_EQ(groups.view(gids[i]).id, 1u);
    EXPECT_EQ(groups.in_flight(gids[i], bases[i]), 0u);
    EXPECT_EQ(groups.queued(gids[i], bases[i]), 0u);
  }
}

}  // namespace
