// Collective phases over the group layer: the Jung & Sakho all-to-all
// broadcast bound, quiet-group completion for every op, view-change-aware
// restart (evicted members excluded, stable chunks never re-sent, no
// double-applied reduction contributions), and seeded churn replay where
// every surviving member ends up holding the complete result.  CollPin
// hashes every op's phase results, stats and observed chunks, including
// the voiding path, so the engine's outputs cannot move unnoticed.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coll/atab.hpp"
#include "coll/collective.hpp"
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

  void run_until(svc::GroupService& groups, double stop_at_s) {
    sched.schedule_at(stop_at_s, [&groups] { groups.stop(); });
    sched.run();
  }
};

TEST(CollConfig, ValidationRejectsBadFields) {
  coll::CollConfig c;
  c.chunks = 0;
  try {
    c.validate();
    FAIL() << "chunks=0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chunks"), std::string::npos);
  }

  c = coll::CollConfig{};
  c.max_reissues_per_chunk = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  // A non-finite backoff would park deferred re-steps at t = +inf.
  for (const double bad : {-1e-6, std::nan(""), HUGE_VAL}) {
    c = coll::CollConfig{};
    c.reissue_backoff_s = bad;
    try {
      c.validate();
      FAIL() << "reissue_backoff_s=" << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("reissue_backoff_s"), std::string::npos);
    }
  }

  EXPECT_NO_THROW(coll::CollConfig{}.validate());
}

TEST(CollConfig, ConstructorValidatesGroupAndConfig) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10});

  EXPECT_THROW(coll::Collective(groups, 999), std::invalid_argument);
  coll::CollConfig bad;
  bad.chunks = 0;
  EXPECT_THROW(coll::Collective(groups, gid, bad), std::invalid_argument);

  coll::Collective coll(groups, gid);
  EXPECT_FALSE(coll.busy());
  EXPECT_EQ(coll.group(), gid);
}

// ---------------------------------------------------------------------------
// Jung & Sakho bound for all-to-all broadcast on k-ary n-dimensional tori:
// with 2n in-links per node and one message per link per step, no schedule
// finishes in fewer than ceil((k^n - 1) / (2n)) steps.

TEST(CollAtab, LowerBoundMatchesFormula) {
  // ceil((k^n - 1) / (2n)) spot checks.
  EXPECT_EQ(coll::atab_lower_bound(2, 2), 1u);   // (4-1)/4
  EXPECT_EQ(coll::atab_lower_bound(2, 3), 2u);   // (8-1)/6
  EXPECT_EQ(coll::atab_lower_bound(3, 2), 2u);   // (9-1)/4
  EXPECT_EQ(coll::atab_lower_bound(4, 2), 4u);   // (16-1)/4
  EXPECT_EQ(coll::atab_lower_bound(5, 2), 6u);   // (25-1)/4
  EXPECT_EQ(coll::atab_lower_bound(3, 3), 5u);   // (27-1)/6
  EXPECT_EQ(coll::atab_lower_bound(4, 3), 11u);  // (64-1)/6
  EXPECT_EQ(coll::atab_lower_bound(8, 2), 16u);  // (64-1)/4

  EXPECT_THROW((void)coll::atab_lower_bound(1, 2), std::invalid_argument);
  EXPECT_THROW((void)coll::atab_lower_bound(4, 0), std::invalid_argument);
}

TEST(CollAtab, GreedyScheduleCompletesWithinTwiceTheBound) {
  // The coordinated greedy schedule is not optimal, but it must complete
  // and stay within 2x the information-theoretic bound on every config.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> configs = {
      {2, 2}, {3, 2}, {4, 2}, {5, 2}, {3, 3}, {4, 3}};
  for (const auto& [k, n] : configs) {
    const auto r = coll::simulate_atab_on_torus(k, n);
    EXPECT_TRUE(r.complete) << "k=" << k << " n=" << n;
    EXPECT_EQ(r.lower_bound, coll::atab_lower_bound(k, n));
    EXPECT_GE(r.steps, r.lower_bound) << "k=" << k << " n=" << n;
    EXPECT_LE(r.steps, 2 * r.lower_bound) << "k=" << k << " n=" << n;
  }

  // The schedule is deterministic: same config, same step count.
  const auto a = coll::simulate_atab_on_torus(4, 2);
  const auto b = coll::simulate_atab_on_torus(4, 2);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.steps, 5u);  // measured; the 4-ary 2-cube bound is 4
}

// ---------------------------------------------------------------------------
// Quiet-group phases: every op completes, every member observes every
// chunk, and nothing is ever re-issued.

TEST(CollPhase, BarrierCompletesOnQuietGroup) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::Collective coll(groups, gid);

  coll::PhaseResult result;
  bool done = false;
  coll.barrier([&](const coll::PhaseResult& r) {
    result = r;
    done = true;
  });
  EXPECT_TRUE(coll.busy());
  fx.run_until(groups, 5e-3);

  ASSERT_TRUE(done);
  EXPECT_FALSE(coll.busy());
  EXPECT_EQ(result.op, coll::OpKind::kBarrier);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.survivors, (std::vector<topo::NodeId>{0, 5, 10, 15}));
  EXPECT_EQ(result.chunks_reissued, 0u);
  EXPECT_EQ(result.restarts, 0u);
  for (const topo::NodeId m : result.roster) {
    EXPECT_TRUE(coll.observed_all(m)) << "member " << m;
  }
}

TEST(CollPhase, BroadcastReachesEveryMember) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::CollConfig cfg;
  cfg.chunks = 3;
  coll::Collective coll(groups, gid, cfg);

  EXPECT_THROW(coll.broadcast(7), std::invalid_argument);  // not a member

  coll::PhaseResult result;
  bool done = false;
  coll.broadcast(5, [&](const coll::PhaseResult& r) {
    result = r;
    done = true;
  });
  fx.run_until(groups, 5e-3);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.op, coll::OpKind::kBroadcast);
  EXPECT_EQ(result.chunks_sent, 3u);  // one multicast per chunk
  EXPECT_EQ(result.chunks_reissued, 0u);
  for (const topo::NodeId m : {0, 5, 10, 15}) {
    EXPECT_TRUE(coll.observed_all(m)) << "member " << m;
    EXPECT_EQ(coll.observed_chunks(m), 3u) << "member " << m;
  }
}

TEST(CollPhase, AllgatherEveryMemberHoldsEveryChunk) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::CollConfig cfg;
  cfg.chunks = 2;
  coll::Collective coll(groups, gid, cfg);

  coll::PhaseResult result;
  bool done = false;
  coll.allgather([&](const coll::PhaseResult& r) {
    result = r;
    done = true;
  });
  fx.run_until(groups, 5e-3);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.degraded);
  // 4 roots x 2 chunks, each exactly one multicast, never re-issued.
  EXPECT_EQ(result.chunks_sent, 8u);
  EXPECT_EQ(result.chunks_reissued, 0u);
  // Every (task, non-root member) pair delivered exactly once.
  EXPECT_EQ(coll.stats().chunks_delivered, 8u * 3u);
  for (const topo::NodeId m : {0, 5, 10, 15}) {
    EXPECT_TRUE(coll.observed_all(m)) << "member " << m;
    EXPECT_EQ(coll.observed_chunks(m), 8u) << "member " << m;
  }
}

TEST(CollPhase, AllreduceAppliesEachContributionExactlyOnce) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::CollConfig cfg;
  cfg.chunks = 4;
  coll::Collective coll(groups, gid, cfg);

  coll::PhaseResult result;
  bool done = false;
  coll.allreduce([&](const coll::PhaseResult& r) {
    result = r;
    done = true;
  });
  fx.run_until(groups, 5e-3);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.chunks_reissued, 0u);
  // Each of the 4 chunks collects one contribution per non-owner member.
  EXPECT_EQ(coll.stats().contributions_applied, 4u * 3u);
  EXPECT_EQ(coll.stats().double_applies, 0u);
  for (const topo::NodeId m : {0, 5, 10, 15}) {
    EXPECT_TRUE(coll.observed_all(m)) << "member " << m;
    EXPECT_EQ(coll.observed_chunks(m), 4u) << "member " << m;
  }
}

TEST(CollPhase, AllToAllBroadcastCompletes) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::CollConfig cfg;
  cfg.chunks = 1;
  coll::Collective coll(groups, gid, cfg);

  coll::PhaseResult result;
  bool done = false;
  coll.all_to_all_broadcast([&](const coll::PhaseResult& r) {
    result = r;
    done = true;
  });
  EXPECT_THROW(coll.barrier(), std::logic_error);  // one phase at a time
  fx.run_until(groups, 5e-3);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.op, coll::OpKind::kAllToAllBroadcast);
  EXPECT_EQ(result.chunks_sent, 4u);  // every member one concurrent multicast
  for (const topo::NodeId m : {0, 5, 10, 15}) {
    EXPECT_TRUE(coll.observed_all(m)) << "member " << m;
  }
}

TEST(CollPhase, AllreduceOnEmptyViewCompletes) {
  // The last member leaves: an empty roster owns no chunks, so every op
  // completes at once instead of indexing a zero-width rank bitmap.
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({3});
  groups.leave(gid, 3);
  ASSERT_TRUE(groups.view(gid).members.empty());
  coll::Collective coll(groups, gid);

  std::vector<coll::PhaseResult> results;
  coll.allreduce([&](const coll::PhaseResult& r1) {
    results.push_back(r1);
    coll.allgather([&](const coll::PhaseResult& r2) {
      results.push_back(r2);
      coll.barrier([&](const coll::PhaseResult& r3) { results.push_back(r3); });
    });
  });
  EXPECT_THROW(coll::Collective(groups, gid).broadcast(3), std::invalid_argument);
  fx.run_until(groups, 1e-3);

  ASSERT_EQ(results.size(), 3u);
  for (const coll::PhaseResult& r : results) {
    EXPECT_TRUE(r.completed) << coll::to_string(r.op);
    EXPECT_FALSE(r.degraded) << coll::to_string(r.op);
    EXPECT_TRUE(r.roster.empty());
    EXPECT_TRUE(r.survivors.empty());
    EXPECT_EQ(r.chunks_sent, 0u);
    EXPECT_EQ(r.completed_at_s, r.started_at_s);
  }
  EXPECT_EQ(coll.stats().phases_completed, 3u);
  EXPECT_EQ(coll.observed_chunks(3), 0u);
}

TEST(CollPhase, PhasesChainBackToBack) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::Collective coll(groups, gid);

  std::vector<coll::PhaseResult> results;
  coll.allgather([&](const coll::PhaseResult& r1) {
    results.push_back(r1);
    coll.allreduce([&](const coll::PhaseResult& r2) {
      results.push_back(r2);
      coll.barrier([&](const coll::PhaseResult& r3) { results.push_back(r3); });
    });
  });
  fx.run_until(groups, 20e-3);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].op, coll::OpKind::kAllgather);
  EXPECT_EQ(results[1].op, coll::OpKind::kAllreduce);
  EXPECT_EQ(results[2].op, coll::OpKind::kBarrier);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].completed) << "phase " << i;
    EXPECT_EQ(results[i].phase_id, i + 1);
    // Later phases start at or after the previous completion.
    if (i > 0) {
      EXPECT_GE(results[i].started_at_s, results[i - 1].completed_at_s);
    }
  }
  EXPECT_EQ(coll.stats().phases_completed, 3u);
}

TEST(CollPhase, MetricsMirrorStats) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::Collective coll(groups, gid);
  obs::MetricsRegistry reg;
  coll.set_metrics(&reg);

  coll.allgather([&](const coll::PhaseResult&) { coll.barrier(); });
  fx.run_until(groups, 10e-3);

  const auto& s = coll.stats();
  EXPECT_EQ(s.phases_completed, 2u);
  EXPECT_EQ(reg.counter("coll.phases_started").value(), s.phases_started);
  EXPECT_EQ(reg.counter("coll.phases_completed").value(), s.phases_completed);
  EXPECT_EQ(reg.counter("coll.chunks_sent").value(), s.chunks_sent);
  EXPECT_EQ(reg.counter("coll.chunks_delivered").value(), s.chunks_delivered);
  EXPECT_EQ(reg.counter("coll.double_applies").value(), 0u);
  EXPECT_EQ(reg.histogram("coll.phase_latency_s").snapshot().count, 2u);
}

// ---------------------------------------------------------------------------
// View-change-aware restart.

TEST(CollRestart, LeaveMidPhaseExcludesMemberAndCompletes) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::CollConfig cfg;
  cfg.chunks = 2;
  coll::Collective coll(groups, gid, cfg);

  coll::PhaseResult result;
  bool done = false;
  coll.allgather([&](const coll::PhaseResult& r) {
    result = r;
    done = true;
  });
  // Before any delivery lands: the leaver's in-flight destinations resolve
  // as kEvicted during the install, and the view-settled restart runs with
  // every chunk still outstanding.
  fx.sched.schedule_at(1e-9, [&] { groups.leave(gid, 15); });
  fx.run_until(groups, 5e-3);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.survivors, (std::vector<topo::NodeId>{0, 5, 10}));
  EXPECT_EQ(result.roster, (std::vector<topo::NodeId>{0, 5, 10, 15}));
  EXPECT_GE(result.restarts, 1u);
  // All live targets were already covered by the launch-time sends, so the
  // restart re-issued nothing.
  EXPECT_EQ(result.chunks_reissued, 0u);
  for (const topo::NodeId m : {0, 5, 10}) {
    EXPECT_TRUE(coll.observed_all(m)) << "survivor " << m;
  }
  EXPECT_FALSE(coll.observed_all(15));
  // No (task, member) pair ever delivered twice: 8 tasks, at most 3
  // non-root receivers each.
  EXPECT_LE(coll.stats().chunks_delivered, 8u * 3u);
  EXPECT_EQ(coll.stats().double_applies, 0u);
}

TEST(CollRestart, AllreduceOwnerLossNeverDoubleAppliesContributions) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::CollConfig cfg;
  cfg.chunks = 4;  // owners are ranks 0..3, so node 15 owns chunk 3
  coll::Collective coll(groups, gid, cfg);

  coll::PhaseResult result;
  bool done = false;
  coll.allreduce([&](const coll::PhaseResult& r) {
    result = r;
    done = true;
  });
  // The owner of chunk 3 leaves before its reduction completes: the chunk
  // demotes to a new owner with a bumped generation, and every stale
  // generation-0 contribution outcome is discarded wholesale.
  fx.sched.schedule_at(1e-9, [&] { groups.leave(gid, 15); });
  fx.run_until(groups, 10e-3);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.survivors, (std::vector<topo::NodeId>{0, 5, 10}));
  EXPECT_GE(result.restarts, 1u);
  EXPECT_EQ(coll.stats().double_applies, 0u);
  for (const topo::NodeId m : {0, 5, 10}) {
    EXPECT_TRUE(coll.observed_all(m)) << "survivor " << m;
  }
}

TEST(CollRestart, ChunksStableInOldViewAreNeverResent) {
  // Measure the quiet completion time, then re-run with a leave injected
  // at fractions of it: whatever the cut point, no (task, member) pair is
  // ever delivered twice, and mid-to-late cuts find already-stable chunks
  // that the restart suppresses instead of re-sending.
  double quiet_s = 0.0;
  {
    Fixture fx(4, 4);
    svc::GroupService groups(fx.service);
    const auto gid = groups.create_group({0, 5, 10, 15});
    coll::CollConfig cfg;
    cfg.chunks = 2;
    coll::Collective coll(groups, gid, cfg);
    coll::PhaseResult result;
    bool done = false;
    coll.allgather([&](const coll::PhaseResult& r) {
      result = r;
      done = true;
    });
    fx.run_until(groups, 5e-3);
    ASSERT_TRUE(done);
    quiet_s = result.completed_at_s - result.started_at_s;
    ASSERT_GT(quiet_s, 0.0);
  }

  std::uint64_t suppressed_total = 0;
  for (const double frac : {0.25, 0.5, 0.75}) {
    Fixture fx(4, 4);
    svc::GroupService groups(fx.service);
    const auto gid = groups.create_group({0, 5, 10, 15});
    coll::CollConfig cfg;
    cfg.chunks = 2;
    coll::Collective coll(groups, gid, cfg);
    coll::PhaseResult result;
    bool done = false;
    coll.allgather([&](const coll::PhaseResult& r) {
      result = r;
      done = true;
    });
    fx.sched.schedule_at(frac * quiet_s, [&] { groups.leave(gid, 15); });
    fx.run_until(groups, 10e-3);

    ASSERT_TRUE(done) << "frac " << frac;
    EXPECT_TRUE(result.completed) << "frac " << frac;
    EXPECT_GE(result.restarts, 1u) << "frac " << frac;
    // 8 tasks x at most 3 non-root receivers: a re-send of a chunk some
    // member already held would push this past the bound.
    EXPECT_LE(coll.stats().chunks_delivered, 8u * 3u) << "frac " << frac;
    EXPECT_EQ(coll.stats().double_applies, 0u);
    for (const topo::NodeId m : result.survivors) {
      EXPECT_TRUE(coll.observed_all(m)) << "frac " << frac << " member " << m;
    }
    suppressed_total += coll.stats().sends_suppressed;
  }
  // At least one cut point caught chunks already stable in the old view.
  EXPECT_GT(suppressed_total, 0u);
}

// ---------------------------------------------------------------------------
// Seeded churn replay: phases keep completing across evictions, leaves,
// and joins, and every surviving roster member holds the full result.

struct CollChurnRun {
  std::vector<coll::PhaseResult> results;
  coll::Collective::Stats stats;
  std::vector<topo::NodeId> last_survivors;
  std::size_t last_observed_all = 0;  // survivors of the last phase holding it all
  std::vector<std::size_t> last_observed;  // observed_chunks per last-phase roster member
};

// Starts one phase of `op`; a broadcast goes out from node 5.
void start_op(coll::Collective& coll, coll::OpKind op, const coll::Collective::DoneFn& done) {
  switch (op) {
    case coll::OpKind::kBroadcast: coll.broadcast(5, done); break;
    case coll::OpKind::kBarrier: coll.barrier(done); break;
    case coll::OpKind::kAllgather: coll.allgather(done); break;
    case coll::OpKind::kAllreduce: coll.allreduce(done); break;
    case coll::OpKind::kAllToAllBroadcast: coll.all_to_all_broadcast(done); break;
  }
}

CollChurnRun run_coll_churn(coll::OpKind op, std::uint64_t seed,
                            coll::CollConfig cfg = {.chunks = 2}) {
  Fixture fx(8, 8);
  svc::GroupService groups(fx.service);
  std::vector<topo::NodeId> init = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<topo::NodeId> cand;
  for (topo::NodeId i = 0; i < 16; ++i) cand.push_back(i);
  const auto gid = groups.create_group(init);

  svc::ChurnConfig cc;
  cc.t_begin_s = 50e-6;
  cc.t_end_s = 3e-3;
  cc.events_per_s = 1.5e3;
  cc.seed = seed;
  const auto schedule = svc::ChurnSchedule::random(init, cand, cc);
  schedule_churn(groups, gid, fx.sched, schedule);

  coll::Collective coll(groups, gid, cfg);

  CollChurnRun out;
  std::function<void(const coll::PhaseResult&)> next =
      [&](const coll::PhaseResult& r) {
        out.results.push_back(r);
        if (fx.sched.now() < cc.t_end_s && groups.view(gid).members.size() >= 2) {
          start_op(coll, op, next);
        }
      };
  start_op(coll, op, next);

  fx.sched.schedule_at(cc.t_end_s + 20e-3, [&] { groups.stop(); });
  fx.sched.run();  // must terminate: no phase may wedge

  out.stats = coll.stats();
  if (!out.results.empty()) {
    out.last_survivors = out.results.back().survivors;
    for (const topo::NodeId m : out.last_survivors) {
      out.last_observed_all += coll.observed_all(m) ? 1 : 0;
    }
    for (const topo::NodeId m : out.results.back().roster) {
      out.last_observed.push_back(coll.observed_chunks(m));
    }
  }
  return out;
}

void check_coll_churn(const CollChurnRun& r, std::uint64_t seed) {
  ASSERT_FALSE(r.results.empty()) << "seed " << seed;
  // Every phase that started also completed (voiding bounds the worst
  // case, so nothing wedges), and phases never overlap.
  EXPECT_EQ(r.stats.phases_completed, r.stats.phases_started) << "seed " << seed;
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    EXPECT_TRUE(r.results[i].completed) << "seed " << seed << " phase " << i;
  }
  // The exactly-once reduction guarantee holds across every restart.
  EXPECT_EQ(r.stats.double_applies, 0u) << "seed " << seed;
  // Every survivor of the final phase holds the complete (recoverable)
  // result -- the churn-replay acceptance check.
  EXPECT_EQ(r.last_observed_all, r.last_survivors.size()) << "seed " << seed;
}

TEST(CollChurn, AllgatherSurvivorsHoldFullResultAcrossSeeds) {
  for (const std::uint64_t seed : {11u, 42u, 77u}) {
    check_coll_churn(run_coll_churn(coll::OpKind::kAllgather, seed), seed);
  }
}

TEST(CollChurn, AllreduceNeverDoubleAppliesAcrossSeeds) {
  for (const std::uint64_t seed : {5u, 29u, 301u}) {
    check_coll_churn(run_coll_churn(coll::OpKind::kAllreduce, seed), seed);
  }
}

TEST(CollChurn, ReplaysDeterministically) {
  const CollChurnRun a = run_coll_churn(coll::OpKind::kAllgather, 99);
  const CollChurnRun b = run_coll_churn(coll::OpKind::kAllgather, 99);
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(a.stats.chunks_sent, b.stats.chunks_sent);
  EXPECT_EQ(a.stats.chunks_reissued, b.stats.chunks_reissued);
  EXPECT_EQ(a.stats.restarts, b.stats.restarts);
  EXPECT_EQ(a.last_survivors, b.last_survivors);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].completed_at_s, b.results[i].completed_at_s);
    EXPECT_EQ(a.results[i].survivors, b.results[i].survivors);
  }
}

// ---------------------------------------------------------------------------
// Pinned outputs.  Each run hashes every PhaseResult field (time stamps by
// bit pattern), the final Stats and observed_chunks() for every member of
// the last phase's roster.  The hashes were recorded before the gather and
// allreduce chunk models were merged into one task model and must never
// be re-recorded: a change to how chunk tasks are stored or stepped may
// not move a send, a restart, a re-root or a voided chunk.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t pin_hash(const std::vector<coll::PhaseResult>& results,
                       const coll::Collective::Stats& s,
                       const std::vector<std::size_t>& observed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = fnv1a(h, v); };
  const auto mix_nodes = [&mix](const std::vector<topo::NodeId>& nodes) {
    mix(nodes.size());
    for (const topo::NodeId n : nodes) mix(n);
  };
  mix(results.size());
  for (const coll::PhaseResult& r : results) {
    mix(static_cast<std::uint64_t>(r.op));
    mix(r.phase_id);
    mix(r.completed ? 1 : 0);
    mix(r.degraded ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(r.started_at_s));
    mix(std::bit_cast<std::uint64_t>(r.completed_at_s));
    mix_nodes(r.roster);
    mix_nodes(r.survivors);
    for (const std::uint64_t v : {r.chunks_sent, r.chunks_reissued, r.restarts, r.chunks_voided}) {
      mix(v);
    }
  }
  for (const std::uint64_t v :
       {s.phases_started, s.phases_completed, s.chunks_sent, s.chunks_reissued,
        s.chunks_delivered, s.chunks_voided, s.restarts, s.sends_suppressed,
        s.stale_discards, s.contributions_applied, s.double_applies}) {
    mix(v);
  }
  mix(observed.size());
  for (const std::size_t o : observed) mix(o);
  return h;
}

struct PinRun {
  std::vector<coll::PhaseResult> results;
  coll::Collective::Stats stats;
  std::vector<std::size_t> observed;

  [[nodiscard]] std::uint64_t hash() const { return pin_hash(results, stats, observed); }
};

// One phase of `op` on {0, 5, 10, 15} of a 4x4 mesh; `inject` schedules
// membership or fault events before the phase starts.
PinRun run_pinned_phase(
    coll::OpKind op, coll::CollConfig cfg,
    const std::function<void(Fixture&, svc::GroupService&, svc::GroupId)>& inject = {}) {
  Fixture fx(4, 4);
  svc::GroupService groups(fx.service);
  const auto gid = groups.create_group({0, 5, 10, 15});
  coll::Collective coll(groups, gid, cfg);
  if (inject) inject(fx, groups, gid);

  PinRun out;
  start_op(coll, op, [&out](const coll::PhaseResult& r) { out.results.push_back(r); });
  fx.run_until(groups, 10e-3);
  out.stats = coll.stats();
  for (const topo::NodeId m : {0, 5, 10, 15}) out.observed.push_back(coll.observed_chunks(m));
  return out;
}

TEST(CollPin, PhaseResultsAreUnchanged) {
  std::vector<std::pair<std::string, std::uint64_t>> got;

  for (const coll::OpKind op :
       {coll::OpKind::kBroadcast, coll::OpKind::kBarrier, coll::OpKind::kAllgather,
        coll::OpKind::kAllreduce, coll::OpKind::kAllToAllBroadcast}) {
    const PinRun r = run_pinned_phase(op, {.chunks = 3});
    ASSERT_EQ(r.results.size(), 1u) << coll::to_string(op);
    got.emplace_back(std::string("quiet ") + coll::to_string(op), r.hash());
  }

  const auto churn_hash = [](const CollChurnRun& r) {
    return pin_hash(r.results, r.stats, r.last_observed);
  };
  for (const std::uint64_t seed : {11u, 42u, 77u, 99u}) {
    got.emplace_back("churn allgather " + std::to_string(seed),
                     churn_hash(run_coll_churn(coll::OpKind::kAllgather, seed)));
  }
  for (const std::uint64_t seed : {5u, 29u, 301u}) {
    got.emplace_back("churn allreduce " + std::to_string(seed),
                     churn_hash(run_coll_churn(coll::OpKind::kAllreduce, seed)));
  }
  // Churn with a re-issue budget of one voids chunks in most phases.
  const CollChurnRun tight = run_coll_churn(coll::OpKind::kAllreduce, 5,
                                            {.chunks = 2, .max_reissues_per_chunk = 1});
  EXPECT_GT(tight.stats.chunks_voided, 0u);
  got.emplace_back("churn allreduce 5 budget 1", churn_hash(tight));

  // Node 15 owns chunk 3 and leaves before its reduction completes.
  got.emplace_back("allreduce owner leaves",
                   run_pinned_phase(coll::OpKind::kAllreduce, {.chunks = 4},
                                    [](Fixture& fx, svc::GroupService& groups, svc::GroupId gid) {
                                      fx.sched.schedule_at(1e-9, [&groups, gid] {
                                        groups.leave(gid, 15);
                                      });
                                    })
                       .hash());

  // Voiding.  Node 15 fails at 1 ns, before any of its chunks reach
  // anyone, and the detector evicts it at 0.4 ms.  Its allgather chunks
  // have no live holder to re-root from.  Until the eviction every send to
  // or from it fails, so the chunks and contributions it takes part in use
  // up a re-issue budget of one, and the allreduce chunk it owns uses up
  // the default budget of 64.
  const auto fail_15 = [](Fixture& fx, svc::GroupService&, svc::GroupId) {
    fx.sched.schedule_at(1e-9, [&fx] { fx.service.network().fail_node(15); });
  };
  const auto voided = [&got, &fail_15](const std::string& name, coll::OpKind op,
                                       coll::CollConfig cfg) {
    const PinRun r = run_pinned_phase(op, cfg, fail_15);
    ASSERT_EQ(r.results.size(), 1u) << name;
    EXPECT_TRUE(r.results[0].completed) << name;
    EXPECT_TRUE(r.results[0].degraded) << name;
    EXPECT_GT(r.results[0].chunks_voided, 0u) << name;
    got.emplace_back(name, r.hash());
  };
  voided("allgather root fails", coll::OpKind::kAllgather, {.chunks = 2});
  voided("broadcast re-issue budget", coll::OpKind::kBroadcast,
         {.chunks = 2, .max_reissues_per_chunk = 1});
  voided("allreduce owner fails", coll::OpKind::kAllreduce, {.chunks = 4});
  voided("allreduce re-issue budget", coll::OpKind::kAllreduce,
         {.chunks = 4, .max_reissues_per_chunk = 1});

  const std::vector<std::pair<std::string, std::uint64_t>> want = {
    {"quiet broadcast", 0xb2c49123130d26ceULL},
    {"quiet barrier", 0x2d7ef36424f69287ULL},
    {"quiet allgather", 0xd71daae9ac1acda3ULL},
    {"quiet allreduce", 0xf05cc6ad249c1114ULL},
    {"quiet all_to_all_broadcast", 0x813b6d315fbc04f5ULL},
    {"churn allgather 11", 0x2d8c8bbe2d9cd5c8ULL},
    {"churn allgather 42", 0xa05cdc9cfa2d6098ULL},
    {"churn allgather 77", 0xb54b18eb5f1b66eeULL},
    {"churn allgather 99", 0xd642aa818f42380aULL},
    {"churn allreduce 5", 0x08fe26c8e8ffd0e3ULL},
    {"churn allreduce 29", 0x0170b44e99ae6c52ULL},
    {"churn allreduce 301", 0xe9a778cbb9c6a222ULL},
    {"churn allreduce 5 budget 1", 0x44ac55638044ab4aULL},
    {"allreduce owner leaves", 0xe7e56655cb3dc94bULL},
    {"allgather root fails", 0x88f29235f34364c0ULL},
    {"broadcast re-issue budget", 0x9de7a8a6544988e8ULL},
    {"allreduce owner fails", 0x423861b97f2c9d5dULL},
    {"allreduce re-issue budget", 0x45478654914fd9d3ULL},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << got[i].first;
  }
}

}  // namespace
