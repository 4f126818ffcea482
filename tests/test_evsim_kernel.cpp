// Kernel contract tests for the rebuilt evsim::Scheduler: same-timestamp
// FIFO order (the determinism rule golden replay relies on), the
// ulp-tolerant past-time clamp, the handler-exception contract, true
// cancellation semantics, calendar-queue window mechanics, and a
// randomized differential run against the preserved binary-heap kernel.
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
#include <vector>

#include "evsim/legacy_heap.hpp"
#include "evsim/scheduler.hpp"

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

}  // namespace
