// The wormhole network simulator: channel pool semantics, exact worm
// timing, contention serialisation, and the Fig. 6.1 deadlock.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dual_path.hpp"
#include "core/naive_tree.hpp"
#include "core/xfirst_mt.hpp"
#include "evsim/random.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/channel_pool.hpp"
#include "wormhole/deadlock.hpp"
#include "wormhole/network.hpp"
#include "wormhole/worm.hpp"

namespace {

using namespace mcnet;
using mcast::MulticastRequest;
using topo::Hypercube;
using topo::Mesh2D;
using topo::NodeId;
using worm::ChannelPool;
using worm::ChannelRequest;
using worm::Network;
using worm::NetworkHooks;
using worm::WormholeParams;

// --- ChannelPool ------------------------------------------------------------

TEST(ChannelPool, GrantsAndQueuesFcfs) {
  ChannelPool pool(4, 1);
  EXPECT_EQ(pool.acquire(0, {1, 0, 0}), std::optional<std::uint8_t>(0));
  EXPECT_EQ(pool.acquire(0, {2, 0, 0}), std::nullopt);
  EXPECT_EQ(pool.acquire(0, {3, 0, 0}), std::nullopt);
  EXPECT_EQ(pool.waiters(0).size(), 2u);
  auto grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 2u);  // FCFS
  grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 3u);
  EXPECT_FALSE(pool.release(0, 0).has_value());
  EXPECT_EQ(pool.busy_count(), 0u);
}

TEST(ChannelPool, AnyCopyUsesBothCopies) {
  ChannelPool pool(1, 2);
  EXPECT_EQ(pool.acquire(0, {1, 0, worm::kAnyCopy}), std::optional<std::uint8_t>(0));
  EXPECT_EQ(pool.acquire(0, {2, 0, worm::kAnyCopy}), std::optional<std::uint8_t>(1));
  EXPECT_EQ(pool.acquire(0, {3, 0, worm::kAnyCopy}), std::nullopt);
}

TEST(ChannelPool, SpecificCopyWaitsEvenIfOtherCopyFree) {
  ChannelPool pool(1, 2);
  EXPECT_EQ(pool.acquire(0, {1, 0, 0}), std::optional<std::uint8_t>(0));
  // Worm 2 insists on copy 0 although copy 1 is free.
  EXPECT_EQ(pool.acquire(0, {2, 0, 0}), std::nullopt);
  EXPECT_EQ(pool.acquire(0, {3, 0, 1}), std::optional<std::uint8_t>(1));
  // Releasing copy 1 must not wake the copy-0 waiter.
  EXPECT_FALSE(pool.release(0, 1).has_value());
  const auto grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 2u);
}

TEST(ChannelPool, CancelRequestsRemovesWaiters) {
  ChannelPool pool(2, 1);
  (void)pool.acquire(0, {1, 0, 0});
  (void)pool.acquire(0, {2, 0, 0});
  (void)pool.acquire(0, {3, 0, 0});
  (void)pool.acquire(0, {2, 1, 0});  // worm 2's other link stays queued
  EXPECT_FALSE(pool.cancel_request(1, 2, 0));  // wrong channel
  EXPECT_FALSE(pool.cancel_request(0, 2, 7));  // wrong link
  EXPECT_TRUE(pool.cancel_request(0, 2, 0));
  EXPECT_FALSE(pool.cancel_request(0, 2, 0));  // already gone
  ASSERT_EQ(pool.waiters(0).size(), 2u);
  EXPECT_EQ(pool.waiters(0)[0].worm_id, 3u);
  const auto grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 3u);
  const auto next = pool.release(0, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->first.worm_id, 2u);
  EXPECT_EQ(next->first.link_index, 1u);
  // A cancelled tail is unlinked cleanly: new waiters queue behind the
  // survivors.
  (void)pool.acquire(0, {4, 0, 0});
  (void)pool.acquire(0, {5, 0, 0});
  EXPECT_TRUE(pool.cancel_request(0, 5, 0));
  (void)pool.acquire(0, {6, 0, 0});
  ASSERT_EQ(pool.waiters(0).size(), 2u);
  EXPECT_EQ(pool.waiters(0)[1].worm_id, 6u);
}

// --- Worm timing ------------------------------------------------------------

struct Capture {
  std::map<NodeId, double> deliveries;
  std::map<std::uint64_t, double> completions;
  NetworkHooks hooks(double t0 = 0.0) {
    NetworkHooks h;
    h.on_delivery = [this, t0](std::uint64_t, NodeId d, double l) { deliveries[d] = l + t0; };
    h.on_message_done = [this](std::uint64_t m, double l) { completions[m] = l; };
    return h;
  }
};

TEST(Network, UncontendedPathTimingIsExact) {
  // Delivery at depth i completes at (i + L - 1) * tau; channel at depth d
  // frees at (d + L) * tau; worm finishes at (D + L) * tau.
  const Mesh2D mesh(6, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 4, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());

  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2, 3, 4, 5};
  p.delivery_hops = {2, 5};  // destinations at depth 2 and 5
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();

  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  ASSERT_EQ(cap.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(cap.deliveries[2], 2 + 4 - 1);  // 5 flit times
  EXPECT_DOUBLE_EQ(cap.deliveries[5], 5 + 4 - 1);  // 8 flit times
  EXPECT_DOUBLE_EQ(cap.completions[0], 5 + 4);     // D + L
}

TEST(Network, SingleFlitMessageDeliversWithHeader) {
  const Mesh2D mesh(4, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 2.0, .message_flits = 1, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2, 3};
  p.delivery_hops = {3};
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  EXPECT_DOUBLE_EQ(cap.deliveries[3], 3 * 2.0);  // pure header latency
}

TEST(Network, ContendedChannelSerialisesWorms) {
  // Two worms share channel 0->1; the second waits until the first's tail
  // clears it at (1 + L) tau, then needs 2 more hops + L - 1 drain.
  const Mesh2D mesh(3, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2};
  p.delivery_hops = {2};
  route.paths.push_back(p);
  std::vector<double> latencies;
  NetworkHooks hooks;
  hooks.on_delivery = [&](std::uint64_t, NodeId, double l) { latencies.push_back(l); };
  net.set_hooks(std::move(hooks));
  net.inject(worm::make_worm_specs(mesh, route, 1));
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_DOUBLE_EQ(latencies[0], 2 + 8 - 1);  // 9
  // Second worm: channel [0,1] frees at t = 1 + 8 = 9; header then crosses
  // hop 1 at 10, hop 2 at 11; delivery at progress 2 + L - 1 = 9 -> 7 more
  // flit times of drain: 11 + 7 = 18.
  EXPECT_DOUBLE_EQ(latencies[1], 18.0);
}

TEST(Network, BlockingTimeDecompositionIsExact) {
  // Same scenario as ContendedChannelSerialisesWorms: worm B waits on
  // channel [0,1] from t = 0 to t = 9 while A's tail drains -- exactly 9
  // flit times of blocking; A never blocks.
  const Mesh2D mesh(3, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 1};
  Network net(mesh, params, sched);
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2};
  p.delivery_hops = {2};
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  EXPECT_DOUBLE_EQ(net.total_blocked_time(), 9.0);
}

TEST(Network, DoubleChannelsRemoveTheSerialisation) {
  const Mesh2D mesh(3, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 2};
  Network net(mesh, params, sched);
  std::vector<double> latencies;
  NetworkHooks hooks;
  hooks.on_delivery = [&](std::uint64_t, NodeId, double l) { latencies.push_back(l); };
  net.set_hooks(std::move(hooks));
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2};
  p.delivery_hops = {2};
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 2));
  net.inject(worm::make_worm_specs(mesh, route, 2));
  sched.run();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_DOUBLE_EQ(latencies[0], 9.0);
  EXPECT_DOUBLE_EQ(latencies[1], 9.0);  // second worm rides copy 1
}

TEST(Network, TreeWormLockStepTiming) {
  // A 2-branch tree: depths 1..2 on one branch, 1 on the other; all
  // branches advance together, deliveries at depth + L - 1 flit times.
  const Mesh2D mesh(3, 3);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 4, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());
  mcast::MulticastRoute route;
  route.source = mesh.node(1, 1);
  mcast::TreeRoute t;
  t.source = route.source;
  const auto l0 = t.add_link(mesh.node(1, 1), mesh.node(2, 1), -1);
  const auto l1 = t.add_link(mesh.node(2, 1), mesh.node(2, 2), static_cast<std::int32_t>(l0));
  const auto l2 = t.add_link(mesh.node(1, 1), mesh.node(0, 1), -1);
  t.delivery_links = {l1, l2};
  route.trees.push_back(t);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  EXPECT_DOUBLE_EQ(cap.deliveries[mesh.node(0, 1)], 1 + 4 - 1);
  EXPECT_DOUBLE_EQ(cap.deliveries[mesh.node(2, 2)], 2 + 4 - 1);
  EXPECT_TRUE(net.idle());
}

// --- Deadlock (Fig. 6.1) ----------------------------------------------------

TEST(Network, BinomialBroadcastsDeadlockOnThreeCube) {
  // Two simultaneous nCUBE-2 broadcasts from 000 and 001 acquire each
  // other's required channels and block forever (Section 6.1, Fig. 6.1/6.2).
  const Hypercube cube(3);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 1};
  Network net(cube, params, sched);

  MulticastRequest req0{0b000, {}};
  MulticastRequest req1{0b001, {}};
  for (NodeId d = 0; d < 8; ++d) {
    if (d != 0b000) req0.destinations.push_back(d);
    if (d != 0b001) req1.destinations.push_back(d);
  }
  net.inject(worm::make_worm_specs(cube, binomial_broadcast_route(cube, req0), 1));
  net.inject(worm::make_worm_specs(cube, binomial_broadcast_route(cube, req1), 1));
  sched.run();

  EXPECT_FALSE(net.idle()) << "the two broadcasts must block forever";
  const worm::DeadlockReport report = worm::check_deadlock(net);
  EXPECT_TRUE(report.deadlocked());
  EXPECT_GE(report.cycle.size(), 2u);
  EXPECT_FALSE(report.description.empty());
}

TEST(Network, DualPathWormsNeverDeadlockUnderStress) {
  // Property: saturating an 8x8 mesh with dual-path multicasts always
  // drains (Assertion 2 mechanised).
  const Mesh2D mesh(8, 8);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 16, .channel_copies = 1};
  Network net(mesh, params, sched);
  evsim::Rng rng(77);
  for (int burst = 0; burst < 200; ++burst) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 15);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    net.inject(worm::make_worm_specs(mesh, dual_path_route(mesh, lab, req), 1));
  }
  sched.run();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  EXPECT_EQ(net.messages_completed(), 200u);
  EXPECT_TRUE(net.find_deadlock().empty());
}

TEST(Network, SelfConflictingTreeIsRejected) {
  // A tree that would need the same physical channel twice must be refused
  // at spec-construction time.
  const Mesh2D mesh(4, 1);
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::TreeRoute t;
  t.source = 0;
  const auto a = t.add_link(0, 1, -1);
  const auto b = t.add_link(1, 0, static_cast<std::int32_t>(a));  // bounce back
  const auto c = t.add_link(0, 1, static_cast<std::int32_t>(b));  // reuse 0->1
  t.delivery_links = {c};
  route.trees.push_back(t);
  EXPECT_THROW((void)worm::make_worm_specs(mesh, route, 1), std::logic_error);
}

TEST(Network, KillCancelsOnlyTheFrontierWaitsAndSurvivorsKeepTheirPlace) {
  // A tree worm T at the centre of a 3x3 mesh holds one frontier link and
  // queues on three more, each with waiters ahead of and behind it.
  // Killing T must drop exactly its requests: every survivor keeps its
  // FCFS place, and T's held link passes to the worm queued behind it.
  const Mesh2D mesh(3, 3);
  evsim::Scheduler sched;
  Network net(mesh, {.flit_time = 1.0, .message_flits = 4, .channel_copies = 1}, sched);
  std::map<topo::ChannelId, std::vector<std::uint32_t>> grants;
  std::vector<NodeId> dropped;
  NetworkHooks hooks;
  hooks.on_channel_grant = [&](topo::ChannelId c, std::uint8_t, std::uint32_t worm, double) {
    grants[c].push_back(worm);
  };
  hooks.on_drop = [&](std::uint64_t, NodeId d, double) { dropped.push_back(d); };
  net.set_hooks(std::move(hooks));

  const NodeId centre = 4;
  const auto link = [&](NodeId to) {
    return worm::WormLink{mesh.channel(centre, to), centre, to, 1, worm::kAnyCopy};
  };
  const auto path = [&](NodeId to) {
    return net.inject({worm::WormSpec{{link(to)}, {{1, to}}}});
  };
  // Worm ids follow injection order (no slot is freed before the kill).
  path(5);  // worm 0 holds 4->5
  path(7);  // worm 1 holds 4->7
  path(3);  // worm 2 holds 4->3
  path(5);  // worm 3 waits on 4->5 ahead of T
  path(3);  // worm 4 waits on 4->3 ahead of T
  const std::uint64_t tree = net.inject(
      {worm::WormSpec{{link(1), link(3), link(5), link(7)}, {{1, 1}, {1, 3}, {1, 5}, {1, 7}}}});
  path(5);  // worm 6 waits on 4->5 behind T
  path(7);  // worm 7 waits on 4->7 behind T
  path(3);  // worm 8 waits on 4->3 behind T
  path(1);  // worm 9 waits on 4->1, which T holds

  const auto queued = [&](NodeId to) {
    std::vector<std::uint32_t> ids;
    for (const ChannelRequest& r : net.pool().waiters(mesh.channel(centre, to))) {
      ids.push_back(r.worm_id);
    }
    return ids;
  };
  ASSERT_EQ(queued(5), (std::vector<std::uint32_t>{3, 5, 6}));
  ASSERT_EQ(queued(3), (std::vector<std::uint32_t>{4, 5, 8}));
  ASSERT_EQ(queued(7), (std::vector<std::uint32_t>{5, 7}));
  ASSERT_EQ(net.pool().holder(mesh.channel(centre, 1), 0), 5u);

  net.abort_message(tree);
  EXPECT_EQ(queued(5), (std::vector<std::uint32_t>{3, 6}));
  EXPECT_EQ(queued(3), (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(queued(7), (std::vector<std::uint32_t>{7}));
  EXPECT_TRUE(queued(1).empty());
  EXPECT_EQ(net.pool().holder(mesh.channel(centre, 1), 0), 9u);  // T's hold passed on
  EXPECT_EQ(dropped, (std::vector<NodeId>{1, 3, 5, 7}));
  EXPECT_EQ(net.worms_killed(), 1u);

  sched.run();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  EXPECT_EQ(grants[mesh.channel(centre, 5)], (std::vector<std::uint32_t>{0, 3, 6}));
  EXPECT_EQ(grants[mesh.channel(centre, 3)], (std::vector<std::uint32_t>{2, 4, 8}));
  EXPECT_EQ(grants[mesh.channel(centre, 7)], (std::vector<std::uint32_t>{1, 7}));
  EXPECT_EQ(grants[mesh.channel(centre, 1)], (std::vector<std::uint32_t>{5, 9}));
  EXPECT_EQ(net.messages_completed(), 10u);
}

TEST(Network, GrantHookMayKillTheWormItWasGranted) {
  // Channel-trace hooks may kill worms.  When the hook kills the worm a
  // release cascade has just handed a channel to, the grant must already
  // be on record, so the kill releases that channel again and nothing
  // runs for the retired worm afterwards.
  const Mesh2D mesh(4, 1);
  evsim::Scheduler sched;
  Network net(mesh, {.flit_time = 1.0, .message_flits = 4, .channel_copies = 1}, sched);
  std::uint64_t victim = 0;
  std::vector<NodeId> dropped;
  NetworkHooks hooks;
  hooks.on_channel_grant = [&](topo::ChannelId, std::uint8_t, std::uint32_t worm, double) {
    if (worm == 1) net.abort_message(victim);
  };
  hooks.on_drop = [&](std::uint64_t, NodeId d, double) { dropped.push_back(d); };
  net.set_hooks(std::move(hooks));
  const auto hop = [&](NodeId from, NodeId to, std::uint32_t depth) {
    return worm::WormLink{mesh.channel(from, to), from, to, depth, worm::kAnyCopy};
  };
  net.inject({worm::WormSpec{{hop(0, 1, 1), hop(1, 2, 2)}, {{2, 2}}}});  // worm 0 holds 0->1
  victim = net.inject({worm::WormSpec{{hop(0, 1, 1), hop(1, 2, 2), hop(2, 3, 3)}, {{3, 3}}}});
  sched.run();
  EXPECT_EQ(dropped, (std::vector<NodeId>{3}));
  EXPECT_EQ(net.worms_killed(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  EXPECT_EQ(net.pool().holder(mesh.channel(0, 1), 0), worm::kNoWorm);
  EXPECT_EQ(net.messages_completed(), 2u);
}

TEST(Network, HookInsideAKillMayNotKillTheDyingWormAgain) {
  // Killing worm 0 releases channel 0->1 to worm 1, and that grant's hook
  // aborts worm 0's message again while the kill is still releasing.  The
  // dying worm must not be killed twice: one drop, one kill, one retired
  // slot (a second kill released the channel under worm 1 and crashed).
  const Mesh2D mesh(4, 1);
  evsim::Scheduler sched;
  Network net(mesh, {.flit_time = 1.0, .message_flits = 64, .channel_copies = 1}, sched);
  std::uint64_t victim = 0;
  bool rearm = false;
  std::vector<NodeId> dropped;
  NetworkHooks hooks;
  hooks.on_channel_grant = [&](topo::ChannelId, std::uint8_t, std::uint32_t, double) {
    if (rearm) {
      rearm = false;
      net.abort_message(victim);
    }
  };
  hooks.on_drop = [&](std::uint64_t, NodeId d, double) { dropped.push_back(d); };
  net.set_hooks(std::move(hooks));
  const auto hop = [&](NodeId from, NodeId to, std::uint32_t depth) {
    return worm::WormLink{mesh.channel(from, to), from, to, depth, worm::kAnyCopy};
  };
  victim = net.inject({worm::WormSpec{{hop(0, 1, 1), hop(1, 2, 2)}, {{2, 2}}}});
  sched.schedule_at(1.0, [&] { net.inject({worm::WormSpec{{hop(0, 1, 1)}, {{1, 1}}}}); });
  sched.schedule_at(5.0, [&] {
    rearm = true;
    net.abort_message(victim);
  });
  sched.run();
  EXPECT_FALSE(rearm);  // the hook ran inside the kill
  EXPECT_EQ(dropped, (std::vector<NodeId>{2}));
  EXPECT_EQ(net.worms_killed(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  EXPECT_EQ(net.messages_completed(), 2u);
}

// --- Malformed worm specs ----------------------------------------------------

// A well-formed three-hop path worm 0 -> 1 -> 2 -> 3 on a 4x1 mesh,
// delivering at depths 1 and 3; each case below breaks one field of it.
worm::WormSpec three_hop_spec(const Mesh2D& mesh) {
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2, 3};
  p.delivery_hops = {1, 3};
  route.paths.push_back(p);
  return worm::make_worm_specs(mesh, route, 2).front();
}

// Injects a good spec followed by `bad` and expects std::invalid_argument
// naming spec 1 and `field`, with nothing injected; the network must then
// still carry a good message.
void expect_rejected(const std::function<void(worm::WormSpec&)>& corrupt,
                     const std::string& field) {
  const Mesh2D mesh(4, 1);
  evsim::Scheduler sched;
  Network net(mesh, {.flit_time = 1.0, .message_flits = 4, .channel_copies = 2}, sched);
  Capture cap;
  net.set_hooks(cap.hooks());
  worm::WormSpec bad = three_hop_spec(mesh);
  corrupt(bad);
  std::vector<worm::WormSpec> specs;
  specs.push_back(three_hop_spec(mesh));
  specs.push_back(std::move(bad));
  try {
    net.inject(std::move(specs));
    ADD_FAILURE() << "inject accepted a spec with a bad " << field;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec 1"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.messages_injected(), 0u);
  EXPECT_EQ(net.pool().busy_count(), 0u);
  if (!net.idle()) return;  // running on would never finish
  net.inject({three_hop_spec(mesh)});
  sched.run();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.messages_completed(), 1u);
  EXPECT_EQ(cap.deliveries.size(), 2u);
}

// Zero channel copies used to reach the tree copy policy's modulo and
// crash with a division by zero.
TEST(WormSpecs, RejectZeroChannelCopies) {
  const topo::Mesh2D mesh(4, 4);
  const mcast::MulticastRoute tree = mcast::xfirst_mt_route(mesh, {5, {0, 15}});
  const auto expect_rejected = [](const auto& convert) {
    try {
      (void)convert();
      ADD_FAILURE() << "zero channel copies accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("copies"), std::string::npos) << e.what();
    }
  };
  expect_rejected([&] { return worm::make_worm_specs(mesh, tree, 0); });
  expect_rejected([&] {
    return worm::make_worm_specs(static_cast<const topo::Topology&>(mesh), tree, 0);
  });
}

TEST(NetworkInject, RejectsEmptyLinks) {
  expect_rejected([](worm::WormSpec& s) { s.links.clear(); }, "links is empty");
}

TEST(NetworkInject, RejectsChannelOutOfRange) {
  const Mesh2D mesh(4, 1);
  expect_rejected([&](worm::WormSpec& s) { s.links[1].channel = mesh.num_channels(); },
                  "links[1].channel");
}

TEST(NetworkInject, RejectsLinksOutOfDepthOrder) {
  expect_rejected(
      [](worm::WormSpec& s) {
        s.links[1].depth = 3;
        s.links[2].depth = 2;
      },
      "links[1].depth");
}

TEST(NetworkInject, RejectsDeliveryDeeperThanDeepestLink) {
  expect_rejected([](worm::WormSpec& s) { s.deliveries.back().first = 4; },
                  "deliveries[1].depth");
}

TEST(NetworkInject, RejectsPinnedCopyOutOfRange) {
  expect_rejected([](worm::WormSpec& s) { s.links[0].copy = 2; }, "links[0].copy");
}

TEST(NetworkInject, RejectsOtherMalformedFields) {
  expect_rejected([](worm::WormSpec& s) { s.links[0].depth = 0; }, "links[0].depth");
  expect_rejected([](worm::WormSpec& s) { s.links[2].copy = -2; }, "links[2].copy");
  expect_rejected([](worm::WormSpec& s) { std::swap(s.deliveries[0], s.deliveries[1]); },
                  "deliveries[1].depth");
  expect_rejected([](worm::WormSpec& s) { s.deliveries[0].first = 0; }, "deliveries[0].depth");
  expect_rejected([](worm::WormSpec& s) { s.deliveries[0].second = 4; },
                  "deliveries[0].destination");
}

TEST(NetworkInject, EmptySpecListIsAMessageWithoutWorms) {
  const Mesh2D mesh(4, 1);
  evsim::Scheduler sched;
  Network net(mesh, {}, sched);
  EXPECT_EQ(net.inject({}), 0u);
  EXPECT_EQ(net.messages_injected(), 1u);
  EXPECT_EQ(net.messages_completed(), 1u);
  EXPECT_TRUE(net.idle());
}

}  // namespace
