// Queueing-theory validation of the event kernel: an M/D/1 server driven
// by scheduler callbacks must match the Pollaczek-Khinchine mean waiting
// time  W_q = rho * s / (2 (1 - rho)).
#include <gtest/gtest.h>

#include <deque>
#include <functional>

#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "evsim/stats.hpp"

namespace {

using namespace mcnet::evsim;

struct MD1Result {
  double mean_wait = 0.0;
  std::uint64_t served = 0;
};

MD1Result run_md1(double arrival_rate, double service_time, std::uint64_t customers,
                  std::uint64_t seed) {
  Scheduler sched;
  Rng rng(seed);
  Summary waits;
  // Arrival times of the customers waiting for the single FCFS server.
  std::deque<double> queue;
  bool busy = false;
  std::uint64_t arrived = 0;

  std::function<void(double)> serve = [&](double arrival) {
    busy = true;
    waits.add(sched.now() - arrival);
    sched.schedule_in(service_time, [&] {
      busy = false;
      if (queue.empty()) return;
      const double next = queue.front();
      queue.pop_front();
      serve(next);
    });
  };
  // Exponential interarrival times: each arrival draws the next one.
  std::function<void()> arrive = [&] {
    if (busy) {
      queue.push_back(sched.now());
    } else {
      serve(sched.now());
    }
    if (++arrived < customers) {
      sched.schedule_in(rng.exponential(1.0 / arrival_rate), [&] { arrive(); });
    }
  };
  sched.schedule_in(rng.exponential(1.0 / arrival_rate), [&] { arrive(); });
  sched.run();
  return {waits.mean(), waits.count()};
}

TEST(EvsimQueueing, MD1MatchesPollaczekKhinchine) {
  const double s = 1.0;  // deterministic service time
  for (const double rho : {0.3, 0.5, 0.7}) {
    const MD1Result r = run_md1(rho / s, s, 60000, 1234);
    ASSERT_EQ(r.served, 60000u);
    const double expected = rho * s / (2.0 * (1.0 - rho));
    EXPECT_NEAR(r.mean_wait, expected, expected * 0.08 + 0.01) << "rho=" << rho;
  }
}

TEST(EvsimQueueing, EmptySystemHasZeroWait) {
  const MD1Result r = run_md1(0.01, 1.0, 500, 7);
  EXPECT_LT(r.mean_wait, 0.02);
}

TEST(EvsimQueueing, DeterministicAcrossSeedsOnlyThroughRng) {
  const MD1Result a = run_md1(0.5, 1.0, 5000, 99);
  const MD1Result b = run_md1(0.5, 1.0, 5000, 99);
  EXPECT_DOUBLE_EQ(a.mean_wait, b.mean_wait);
}

}  // namespace
