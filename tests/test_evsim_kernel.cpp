// Kernel contract tests for the rebuilt evsim::Scheduler: same-timestamp
// FIFO order (the determinism rule golden replay relies on), the
// ulp-tolerant past-time clamp, the handler-exception contract, true
// cancellation semantics, calendar-queue window mechanics, the FIFO lane,
// randomized differential runs against the preserved binary-heap kernel,
// and a count gate on the Fig 7.8 wormhole configuration.
//
// Suite names start with "Kernel" on purpose: the TSan CI job includes
// them via its -R 'Kernel|Sched|...' ctest filter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/router.hpp"
#include "evsim/legacy_heap.hpp"
#include "evsim/scheduler.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

namespace {

using mcnet::evsim::EventId;
using mcnet::evsim::LegacyHeapScheduler;
using mcnet::evsim::Scheduler;

// ---------------------------------------------------------------------
// Same-timestamp FIFO order
// ---------------------------------------------------------------------

TEST(KernelOrder, SameTimestampRunsInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] { order.push_back(0); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(0.5, [&] { order.push_back(2); });
  sched.schedule_at(1.0, [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3}));
}

TEST(KernelOrder, HandlerScheduledEventsAtCurrentTimeRunAfterQueuedTies) {
  // Events scheduled from inside a running handler at the current
  // timestamp must run after every already-queued event at that timestamp
  // (they carry larger sequence numbers).  This order was implicit in the
  // old heap kernel; the calendar kernel pins it.
  Scheduler sched;
  std::vector<std::string> order;
  sched.schedule_at(1.0, [&] {
    order.push_back("a");
    sched.schedule_at(1.0, [&] { order.push_back("a.child"); });
  });
  sched.schedule_at(1.0, [&] { order.push_back("b"); });
  sched.schedule_at(2.0, [&] { order.push_back("c"); });
  sched.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a.child", "c"}));
}

TEST(KernelOrder, ZeroDelayChainsFromHandlersStayFifo) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_in(0.0, [&] {
    order.push_back(1);
    sched.schedule_in(0.0, [&] { order.push_back(3); });
  });
  sched.schedule_in(0.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 0.0);
}

TEST(KernelOrder, StepDispatchesExactlyOneEvent) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1.0, [&] { ++fired; });
  sched.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.events_dispatched(), 2u);
}

// ---------------------------------------------------------------------
// Past-time clamp (sub-ulp derived-time drift)
// ---------------------------------------------------------------------

TEST(KernelClamp, OneUlpBehindNowIsClampedToNow) {
  Scheduler sched;
  sched.schedule_at(0.3, [] {});
  sched.run();
  ASSERT_DOUBLE_EQ(sched.now(), 0.3);
  const double just_past = std::nextafter(sched.now(), 0.0);
  ASSERT_LT(just_past, sched.now());
  double fired_at = -1.0;
  EXPECT_NO_THROW(sched.schedule_at(just_past, [&] { fired_at = sched.now(); }));
  sched.run();
  EXPECT_EQ(fired_at, 0.3);  // clamped to now, not dispatched "in the past"
}

TEST(KernelClamp, DerivedMilestoneArithmeticDoesNotThrow) {
  // Regression for the wormhole drain expression t0 + (d + L - 1 - p) * tau:
  // accumulating now() through many tau-sized hops and then recomputing a
  // milestone as base + k * tau can undershoot the accumulated clock by a
  // few ulp.  Those schedules must clamp, not throw.
  Scheduler sched;
  const double tau = 50e-9;
  double base = 0.0;
  int hops = 0;
  // Walk the clock to base + 7*tau via single-tau steps (accumulated sum),
  // then schedule at base + 7*tau (one multiply) -- a bit pattern that can
  // differ from the accumulated value in either direction.
  std::function<void()> hop = [&] {
    if (++hops < 7) {
      sched.schedule_in(tau, hop);
      return;
    }
    EXPECT_NO_THROW(sched.schedule_at(base + 7.0 * tau, [] {}));
  };
  sched.schedule_at(base, hop);
  EXPECT_NO_THROW(sched.run());
  EXPECT_EQ(hops, 7);
}

TEST(KernelClamp, GenuinelyPastTimesStillThrow) {
  Scheduler sched;
  sched.schedule_at(2.0, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.schedule_at(sched.now() - 1e-9, [] {}), std::invalid_argument);
}

TEST(KernelClamp, NanIsRejected) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sched.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Exception contract
// ---------------------------------------------------------------------

TEST(KernelExceptions, RunUntilLeavesConsistentStateWhenHandlerThrows) {
  Scheduler sched;
  std::vector<int> ran;
  sched.schedule_at(1.0, [&] { ran.push_back(1); });
  sched.schedule_at(2.0, [&]() -> void { throw std::runtime_error("boom"); });
  sched.schedule_at(3.0, [&] { ran.push_back(3); });

  EXPECT_THROW(sched.run_until(5.0), std::runtime_error);
  // The throwing event counts as dispatched, the clock rests at its time
  // (not t_end), and the rest of the queue is intact.
  EXPECT_EQ(sched.events_dispatched(), 2u);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(ran, (std::vector<int>{1}));

  // The scheduler stays fully usable after the throw.
  EXPECT_EQ(sched.run_until(5.0), 1u);
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
  EXPECT_TRUE(sched.empty());
}

TEST(KernelExceptions, ThrowingHandlerCallableIsDestroyed) {
  Scheduler sched;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  sched.schedule_at(1.0, [t = std::move(token)]() -> void { throw std::runtime_error("x"); });
  EXPECT_FALSE(watch.expired());
  EXPECT_THROW(sched.run(), std::runtime_error);
  // The capture is destroyed on the throw path, not leaked in the slab.
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

TEST(KernelCancel, CancelledEventNeverRunsAndReleasesCapturesImmediately) {
  Scheduler sched;
  auto resource = std::make_shared<int>(42);
  std::weak_ptr<int> watch = resource;
  bool ran = false;
  EventId id = sched.schedule_at(1.0, [r = std::move(resource), &ran] { ran = true; });
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(sched.pending(), 1u);

  EXPECT_TRUE(sched.cancel(id));
  // The capture dies at cancel() time -- before the queue drains.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.events_cancelled(), 1u);

  sched.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched.events_dispatched(), 0u);
}

TEST(KernelCancel, DoubleCancelAndCancelAfterFireAreNoOps) {
  Scheduler sched;
  EventId id = sched.schedule_at(1.0, [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel: already dead

  int fired = 0;
  EventId live = sched.schedule_at(2.0, [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sched.cancel(live));  // already fired
  EXPECT_FALSE(sched.cancel(EventId{}));  // null handle
}

TEST(KernelCancel, StaleHandleToReusedSlotDoesNotKillTheNewEvent) {
  Scheduler sched;
  EventId old_id = sched.schedule_at(1.0, [] {});
  EXPECT_TRUE(sched.cancel(old_id));
  // Drain the carcass so the slot returns to the freelist, then reuse it.
  sched.run();
  bool ran = false;
  (void)sched.schedule_at(1.0, [&] { ran = true; });
  EXPECT_FALSE(sched.cancel(old_id));  // generation mismatch: stale handle
  sched.run();
  EXPECT_TRUE(ran);
}

TEST(KernelCancel, CancelInterleavedWithDispatchKeepsOrder) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sched.schedule_at(1.0 + i, [&order, i] { order.push_back(i); }));
  }
  // Cancel every odd event, including from inside a handler.
  EXPECT_TRUE(sched.cancel(ids[1]));
  EXPECT_TRUE(sched.cancel(ids[9]));
  sched.schedule_at(2.5, [&] {
    EXPECT_TRUE(sched.cancel(ids[3]));
    EXPECT_TRUE(sched.cancel(ids[5]));
    EXPECT_TRUE(sched.cancel(ids[7]));
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
  EXPECT_EQ(sched.events_cancelled(), 5u);
}

TEST(KernelCancel, CancellingTheRunningEventIsANoOp) {
  Scheduler sched;
  EventId self;
  bool reported = true;
  self = sched.schedule_at(1.0, [&] { reported = sched.cancel(self); });
  sched.run();
  EXPECT_FALSE(reported);  // a running event can no longer be cancelled
  EXPECT_EQ(sched.events_dispatched(), 1u);
}

// ---------------------------------------------------------------------
// Calendar-queue mechanics
// ---------------------------------------------------------------------

TEST(KernelCalendar, FarFutureEventsParkInOverflowAndStillFireInOrder) {
  Scheduler sched;
  std::vector<double> fired;
  // Dense near-term traffic at nanosecond spacing...
  for (int i = 1; i <= 1000; ++i) {
    sched.schedule_at(i * 50e-9, [&fired, &sched] { fired.push_back(sched.now()); });
  }
  // ...plus sparse far-future timeouts (a 1 s and a 2 s timer).
  sched.schedule_at(2.0, [&fired, &sched] { fired.push_back(sched.now()); });
  sched.schedule_at(1.0, [&fired, &sched] { fired.push_back(sched.now()); });
  EXPECT_GT(sched.overflow_size(), 0u)
      << "second-scale timers should sit in the overflow band, not the window";
  sched.run();
  ASSERT_EQ(fired.size(), 1002u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
  EXPECT_DOUBLE_EQ(fired[1000], 1.0);
  EXPECT_DOUBLE_EQ(fired[1001], 2.0);
}

TEST(KernelCalendar, WindowJumpAcrossLongIdleGapPreservesSubsequentInserts) {
  Scheduler sched;
  std::vector<std::string> order;
  sched.schedule_at(10e-9, [&] { order.push_back("early"); });
  // After a long dead stretch the window must jump to the far event...
  sched.schedule_at(5.0, [&] {
    order.push_back("late");
    // ...and events scheduled afterwards at nearby times still order
    // correctly even though the window teleported.
    sched.schedule_in(10e-9, [&] { order.push_back("late+10ns"); });
    sched.schedule_in(0.0, [&] { order.push_back("late+0"); });
  });
  sched.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"early", "late", "late+0", "late+10ns"}));
}

TEST(KernelCalendar, GrowAndRetuneNeverReorder) {
  // Push far past the initial bucket count (256) with mixed timescales so
  // the queue grows and retunes mid-run; order must stay strict (t, seq).
  Scheduler sched;
  std::vector<double> fired;
  fired.reserve(40000);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 40000; ++i) {
    const double scale = (i % 3 == 0) ? 1e-3 : 1e-6;
    const double t = static_cast<double>(next() % 1000000) * scale / 1e3;
    sched.schedule_at(t, [&fired, &sched] { fired.push_back(sched.now()); });
  }
  sched.run();
  ASSERT_EQ(fired.size(), 40000u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
  EXPECT_GT(sched.num_buckets(), 256u);  // the arena grew under load
}

TEST(KernelCalendar, HugeTimestampsDoNotWedgeTheWindow) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(1e16, [&] { order.push_back(2); });  // beyond 2^53 buckets
  sched.schedule_at(std::numeric_limits<double>::infinity(), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------
// Differential vs the preserved heap kernel
// ---------------------------------------------------------------------

namespace diff {

constexpr std::uint64_t kMix = 0xbf58476d1ce4e5b9ull;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * kMix;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Self-expanding workload: event `tag` fires, records itself, and spawns
/// 0-2 children at deterministic offsets derived from the tag alone.  The
/// trace depends only on dispatch order, so two kernels that agree on
/// (time, schedule-order) dispatch produce bit-identical traces.
template <typename Sched>
void spawn(Sched& sched, std::vector<std::pair<double, std::uint64_t>>& trace,
           std::uint64_t& budget, std::uint64_t tag, double t) {
  sched.schedule_at(t, [&sched, &trace, &budget, tag] {
    trace.emplace_back(sched.now(), tag);
    if (budget == 0) return;
    const std::uint64_t h = splitmix(tag);
    // Supercritical branching (1-2 children, mean 1.5): the population
    // grows until the shared budget, not extinction, ends the run.
    const int kids = static_cast<int>(1 + h % 2);
    for (int k = 0; k < kids && budget > 0; ++k) {
      --budget;
      const std::uint64_t child = splitmix(h + static_cast<std::uint64_t>(k) + 1);
      // Mixed timescales: ns-grain steps with occasional ms-scale jumps,
      // and a deliberate dose of zero-delay (same-timestamp) children.
      const std::uint64_t sel = child % 10;
      double dt = 0.0;
      if (sel >= 2) dt = static_cast<double>(child % 997) * 50e-9;
      if (sel == 9) dt += 1e-3;
      spawn(sched, trace, budget, child, sched.now() + dt);
    }
  });
}

/// The lane delay the lane differential runs register: 2^-24 s (~60 ns),
/// so every multiple k * kTau is exact and grid times tie for real.
constexpr double kTau = 1.0 / 16777216.0;

struct Boom {};

/// Lane workload: each event records itself, may cancel an earlier
/// child, spawns 1-2 children and occasionally throws.  Delays land on
/// both sides of the lane's 1.5 kTau horizon, exactly on it, just either
/// side of it, and on a kTau grid where lane and calendar events tie.
/// Event ids are schedule-call serials, identical on both kernels while
/// their dispatch orders agree; the legacy heap, which cannot cancel,
/// skips cancelled ids when they fire.
template <typename Sched>
class LaneMix {
 public:
  static constexpr bool kHeap = std::is_same_v<Sched, LegacyHeapScheduler>;

  LaneMix(Sched& sched, std::uint64_t budget) : sched_(sched), budget_(budget) {}

  void spawn(double t) {
    const std::uint64_t id = next_id_++;
    if constexpr (kHeap) {
      cancelled_.push_back(false);
      sched_.schedule_at(t, [this, id] { fire(id); });
    } else {
      handles_.push_back(sched_.schedule_at(t, [this, id] { fire(id); }));
    }
  }

  /// Drive the workload to quiescence through run_until cuts (a throw is
  /// retried at the same cut), injecting fresh roots after each cut.
  void drive(std::uint64_t roots) {
    for (std::uint64_t r = 0; r < roots; ++r) spawn(static_cast<double>(r % 4) * kTau);
    for (int cut = 1; cut <= 40; ++cut) {
      // Odd cuts fall on the grid (events at t_end run), even ones off it.
      const double t_end = static_cast<double>(cut * 37) * kTau + (cut % 2 == 0 ? 0.3 * kTau : 0.0);
      until(t_end);
      trace.emplace_back(sched_.now(), kCutMark);
      spawn(sched_.now() + kTau);
      spawn(sched_.now() + static_cast<double>(cut % 3) * kTau);
    }
    for (;;) {
      try {
        sched_.run();
        return;
      } catch (const Boom&) {
        ++throws;
      }
    }
  }

  static constexpr std::uint64_t kCutMark = ~0ull;
  std::vector<std::pair<double, std::uint64_t>> trace;
  std::uint64_t throws = 0;

 private:
  void until(double t_end) {
    for (;;) {
      try {
        sched_.run_until(t_end);
        return;
      } catch (const Boom&) {
        ++throws;
      }
    }
  }

  static double delay(std::uint64_t c) {
    const std::uint64_t k = c >> 8;
    switch (c % 10) {
      case 0:
        return 0.0;
      case 1:
      case 2:
        return kTau;  // the lane's staple: one hop
      case 3:
        return 1.5 * kTau;  // exactly on the horizon (admitted)
      case 4:
        return static_cast<double>(k % 8) * kTau;  // grid ties either side
      case 5:
        return static_cast<double>(k % 3000) / 1000.0 * kTau;  // uniform over [0, 3 kTau)
      case 6:
        return 1.5 * kTau * (k % 2 == 0 ? 1.0 + 1e-12 : 1.0 - 1e-12);  // straddle the edge
      case 7:
        return static_cast<double>(k % 200) * kTau;  // calendar window
      case 8:
        return 2.0 * kTau;
      default:
        return 1e-4 + static_cast<double>(k % 16) * kTau;  // overflow band
    }
  }

  void fire(std::uint64_t id) {
    if constexpr (kHeap) {
      if (cancelled_[id]) return;
    }
    trace.emplace_back(sched_.now(), id);
    const std::uint64_t h = splitmix(id ^ 0x5eedull);
    if (h % 5 == 0 && !victims_.empty()) {
      const std::uint64_t v = victims_.back();
      victims_.pop_back();
      if constexpr (kHeap) {
        cancelled_[v] = true;  // a no-op on the trace once v has fired
      } else {
        (void)sched_.cancel(handles_[v]);
      }
    }
    const int kids = static_cast<int>(1 + (h >> 8) % 2);
    for (int k = 0; k < kids && budget_ > 0; ++k) {
      --budget_;
      const std::uint64_t c = splitmix(h + static_cast<std::uint64_t>(k) + 1);
      spawn(sched_.now() + delay(c));
      if ((c >> 20) % 3 == 0) victims_.push_back(next_id_ - 1);
    }
    if ((h >> 32) % 97 == 0) throw Boom{};
  }

  Sched& sched_;
  std::uint64_t budget_;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> victims_;
  std::vector<EventId> handles_;  // the calendar kernel's cancel handles
  std::vector<bool> cancelled_;   // the heap kernel's cancel flags
};

}  // namespace diff

TEST(KernelDifferential, MatchesLegacyHeapDispatchOn100kEvents) {
  std::vector<std::pair<double, std::uint64_t>> calendar_trace;
  std::vector<std::pair<double, std::uint64_t>> heap_trace;
  constexpr std::uint64_t kBudget = 100000;

  {
    Scheduler sched;
    std::uint64_t budget = kBudget;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      diff::spawn(sched, calendar_trace, budget, diff::splitmix(seed),
                  static_cast<double>(seed) * 11e-9);
    }
    sched.run();
  }
  {
    LegacyHeapScheduler sched;
    std::uint64_t budget = kBudget;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      diff::spawn(sched, heap_trace, budget, diff::splitmix(seed),
                  static_cast<double>(seed) * 11e-9);
    }
    sched.run();
  }

  ASSERT_GT(calendar_trace.size(), kBudget);
  ASSERT_EQ(calendar_trace.size(), heap_trace.size());
  for (std::size_t i = 0; i < calendar_trace.size(); ++i) {
    ASSERT_EQ(calendar_trace[i].second, heap_trace[i].second)
        << "dispatch order diverged from the heap kernel at event " << i;
    // Bit-exact times: both kernels dispatch at the scheduled double.
    ASSERT_EQ(calendar_trace[i].first, heap_trace[i].first);
  }
}

TEST(KernelDifferential, RunUntilAgreesWithLegacyHeap) {
  std::vector<std::pair<double, std::uint64_t>> calendar_trace;
  std::vector<std::pair<double, std::uint64_t>> heap_trace;
  constexpr std::uint64_t kBudget = 20000;
  constexpr double kCut = 1.5e-3;

  // The budgets must outlive run_until: every spawned event decrements its
  // kernel's budget through a reference.
  Scheduler cal;
  std::uint64_t cal_budget = kBudget;
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    diff::spawn(cal, calendar_trace, cal_budget, diff::splitmix(seed), 0.0);
  }
  const std::uint64_t cal_n = cal.run_until(kCut);

  LegacyHeapScheduler heap;
  std::uint64_t heap_budget = kBudget;
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    diff::spawn(heap, heap_trace, heap_budget, diff::splitmix(seed), 0.0);
  }
  const std::uint64_t heap_n = heap.run_until(kCut);

  EXPECT_EQ(cal_n, heap_n);
  EXPECT_EQ(cal.now(), heap.now());
  ASSERT_EQ(calendar_trace.size(), heap_trace.size());
  EXPECT_EQ(calendar_trace, heap_trace);
}

TEST(KernelDifferential, LaneMatchesLegacyHeapAcrossHorizonCancelsThrowsAndCuts) {
  Scheduler cal;
  cal.register_lane_delay(diff::kTau);
  diff::LaneMix<Scheduler> lane_mix(cal, 60000);
  lane_mix.drive(24);

  LegacyHeapScheduler heap;
  diff::LaneMix<LegacyHeapScheduler> heap_mix(heap, 60000);
  heap_mix.drive(24);

  ASSERT_EQ(lane_mix.trace.size(), heap_mix.trace.size());
  for (std::size_t i = 0; i < lane_mix.trace.size(); ++i) {
    ASSERT_EQ(lane_mix.trace[i], heap_mix.trace[i])
        << "dispatch order diverged from the heap kernel at trace entry " << i;
  }
  EXPECT_EQ(lane_mix.throws, heap_mix.throws);
  // The run exercised what it claims to: both structures, cancellation
  // (lane carcasses included), throwing handlers and calendar growth.
  EXPECT_GT(cal.lane_dispatched(), cal.events_dispatched() / 10);
  EXPECT_LT(cal.lane_dispatched(), cal.events_dispatched());
  EXPECT_GT(cal.events_cancelled(), 1000u);
  EXPECT_GT(lane_mix.throws, 10u);
  EXPECT_GT(cal.num_buckets(), 256u);
  EXPECT_TRUE(cal.empty());
}

// ---------------------------------------------------------------------
// FIFO lane
// ---------------------------------------------------------------------

TEST(KernelLane, ClosedUntilRegisteredAndTheLargestDelayWins) {
  Scheduler sched;
  for (int i = 1; i <= 8; ++i) sched.schedule_in(50e-9 * i, [] {});
  sched.run();
  EXPECT_EQ(sched.lane_dispatched(), 0u);  // calendar-only dispatch

  sched.register_lane_delay(50e-9);
  sched.register_lane_delay(20e-9);  // smaller: the horizon stays 75 ns
  EXPECT_THROW(sched.register_lane_delay(0.0), std::invalid_argument);
  EXPECT_THROW(sched.register_lane_delay(-1e-9), std::invalid_argument);
  EXPECT_THROW(sched.register_lane_delay(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(sched.register_lane_delay(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  sched.schedule_in(74e-9, [] {});  // inside 1.5 x 50 ns: lane
  sched.run();
  EXPECT_EQ(sched.lane_dispatched(), 1u);
  sched.schedule_in(76e-9, [] {});  // outside: calendar
  sched.run();
  EXPECT_EQ(sched.lane_dispatched(), 1u);
  EXPECT_EQ(sched.events_dispatched(), 10u);
}

TEST(KernelLane, EqualTimeTiesWithTheCalendarRunInScheduleOrder) {
  Scheduler sched;
  sched.register_lane_delay(diff::kTau);
  std::vector<int> order;
  const double t = 2.0 * diff::kTau;
  // Scheduled from now = 0, 2 kTau is past the horizon: calendar.
  sched.schedule_at(t, [&] { order.push_back(0); });
  sched.schedule_at(diff::kTau, [&] {
    // From now = kTau the same time is one hop away: lane.  Schedule
    // order, not the structure, breaks the tie.
    sched.schedule_at(t, [&] { order.push_back(2); });
    order.push_back(1);
  });
  sched.schedule_at(t, [&] { order.push_back(-1); });  // calendar again, after event 0
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, -1, 2}));
  EXPECT_EQ(sched.lane_dispatched(), 2u);  // the kTau root and event 2
}

TEST(KernelLane, CancelledLaneEventsAreFreedAtTheHead) {
  Scheduler sched;
  sched.register_lane_delay(diff::kTau);
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(sched.schedule_at(diff::kTau, [&order, i] { order.push_back(i); }));
  }
  const EventId held = sched.schedule_at(diff::kTau, [t = std::move(token)] { (void)t; });
  EXPECT_TRUE(sched.cancel(ids[0]));  // the lane's head
  EXPECT_TRUE(sched.cancel(ids[3]));
  EXPECT_TRUE(sched.cancel(held));    // the lane's tail
  EXPECT_TRUE(watch.expired());      // captures die at cancel time
  EXPECT_FALSE(sched.cancel(ids[3]));
  EXPECT_EQ(sched.pending(), 4u);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5}));
  EXPECT_EQ(sched.lane_dispatched(), 4u);
  EXPECT_EQ(sched.events_cancelled(), 3u);
  // The carcasses' slots went back to the freelist: a fresh event reuses
  // one, and the stale handle cannot touch it.
  bool ran = false;
  (void)sched.schedule_in(diff::kTau, [&] { ran = true; });
  EXPECT_FALSE(sched.cancel(ids[0]));
  sched.run();
  EXPECT_TRUE(ran);
}

TEST(KernelLane, CalendarRebuildsWhileTheLaneHoldsEventsKeepOrder) {
  std::vector<std::pair<double, int>> lane_trace;
  std::vector<std::pair<double, int>> heap_trace;
  auto load = [](auto& sched, std::vector<std::pair<double, int>>& trace) {
    auto rec = [&sched, &trace](int tag) {
      return [&sched, &trace, tag] { trace.emplace_back(sched.now(), tag); };
    };
    // 64 lane events at one hop, then enough calendar events on the grid
    // to force growth rebuilds (> 128 calendar events) while they wait...
    for (int i = 0; i < 64; ++i) sched.schedule_at(diff::kTau, rec(i));
    for (int k = 2; k < 600; ++k) sched.schedule_at(k * diff::kTau, rec(1000 + k));
    // ...and from the first lane event, a descending burst into one
    // bucket that trips the insert-side overload rebuild.
    sched.schedule_at(diff::kTau, [&sched, &trace, rec] {
      trace.emplace_back(sched.now(), -1);
      for (int j = 64; j > 0; --j) sched.schedule_at(3.0 * diff::kTau + j * 1e-15, rec(5000 + j));
      for (int j = 0; j < 32; ++j) sched.schedule_in(diff::kTau, rec(9000 + j));
    });
  };
  Scheduler cal;
  cal.register_lane_delay(diff::kTau);
  load(cal, lane_trace);
  EXPECT_GT(cal.num_buckets(), 256u);  // grew with all 65 lane events pending
  EXPECT_EQ(cal.lane_dispatched(), 0u);
  cal.run();
  LegacyHeapScheduler heap;
  load(heap, heap_trace);
  heap.run();
  EXPECT_EQ(lane_trace, heap_trace);
  EXPECT_GE(cal.lane_dispatched(), 65u + 32u);
}

TEST(KernelLane, ThrowingLaneHandlerKeepsTheExceptionContract) {
  Scheduler sched;
  sched.register_lane_delay(diff::kTau);
  auto token = std::make_shared<int>(3);
  std::weak_ptr<int> watch = token;
  std::vector<int> ran;
  sched.schedule_at(diff::kTau, [t = std::move(token)]() -> void { throw std::runtime_error("x"); });
  sched.schedule_at(diff::kTau, [&] { ran.push_back(1); });
  sched.schedule_at(3.0 * diff::kTau, [&] { ran.push_back(3); });  // calendar
  EXPECT_THROW(sched.run_until(5.0 * diff::kTau), std::runtime_error);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sched.events_dispatched(), 1u);
  EXPECT_EQ(sched.lane_dispatched(), 1u);
  EXPECT_EQ(sched.now(), diff::kTau);
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_EQ(sched.run_until(5.0 * diff::kTau), 2u);
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
  EXPECT_EQ(sched.now(), 5.0 * diff::kTau);
  EXPECT_TRUE(sched.empty());
}

// ---------------------------------------------------------------------
// Count gate on the Fig 7.8 configuration
// ---------------------------------------------------------------------

TEST(KernelGate, Fig78DispatchCountsAndLaneShare) {
  // The Fig 7.8 dual-path point (8x8 double-channel mesh, 150 us mean
  // interarrival, 10 destinations on average) for 5 ms of arrivals at a
  // fixed seed, drained to quiescence.  The counts were recorded before
  // the lane existed: a kernel or network change that adds, drops or
  // splits an event fails here on every host, with no timing noise.
  namespace topo = mcnet::topo;
  namespace worm = mcnet::worm;
  const topo::Mesh2D mesh(8, 8);
  const auto router = mcnet::mcast::make_router(mesh, mcnet::mcast::Algorithm::kDualPath, 2);
  Scheduler sched;
  worm::Network net(mesh, {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 2},
                    sched);
  std::uint64_t deliveries = 0;
  worm::NetworkHooks hooks;
  hooks.on_delivery = [&](std::uint64_t, topo::NodeId, double) { ++deliveries; };
  net.set_hooks(std::move(hooks));
  worm::TrafficDriver traffic(
      sched, net, {.mean_interarrival_s = 150e-6, .avg_destinations = 10, .seed = 1}, *router);
  traffic.start();
  sched.run_until(0.005);
  traffic.stop();
  sched.run();

  EXPECT_EQ(net.messages_injected(), 2137u);
  EXPECT_EQ(sched.events_dispatched(), 132418u);
  EXPECT_EQ(deliveries, 21507u);
  EXPECT_DOUBLE_EQ(static_cast<double>(sched.events_dispatched()) /
                       static_cast<double>(deliveries),
                   132418.0 / 21507.0);
  EXPECT_EQ(sched.events_cancelled(), 0u);
  EXPECT_TRUE(net.idle());
  // Header advances and drain milestones ride the lane.
  EXPECT_GE(static_cast<double>(sched.lane_dispatched()),
            0.90 * static_cast<double>(sched.events_dispatched()))
      << sched.lane_dispatched() << " of " << sched.events_dispatched();
}

}  // namespace
