// Kernel throughput bench: raw events/sec of the calendar-queue arena
// scheduler vs the seed's binary-heap std::function kernel (preserved in
// evsim/legacy_heap.hpp), on the workloads the simulator actually runs.
//
// Series:
//   headline:*  -- 64k-node uniform traffic under reliable delivery: each
//                  node sends with exponential gaps, and every send arms a
//                  1 s timeout backstop while cancelling the previous one
//                  (the service layer's reliable_attempt pattern).  The
//                  calendar kernel truly cancels -- dead backstops never
//                  dispatch, far timers park in the overflow band, carcass
//                  compaction bounds memory.  The heap kernel has to
//                  re-enact the seed's stale-closure idiom (settled-flag
//                  no-ops that stay queued), so its pending set bloats
//                  without bound.  meta.headline carries the
//                  machine-independent speedup ratio; the bench-smoke gate
//                  requires >= 3x and events/sec >= 0.9x the committed
//                  BENCH_kernel.json baseline.
//   hold:*      -- the same hold model as the pending-event population
//                  sweeps 1k -> 256k (heap pays log n, calendar stays O(1)).
//   timeout:*   -- the service-layer timeout pattern: every operation arms a
//                  far-future timeout backstop and completes early.  The
//                  calendar kernel cancels the backstop for real (the dead
//                  closure never dispatches, far timers park in the overflow
//                  band); the heap kernel re-enacts the old stale-closure
//                  no-op pattern it forced on callers.
//   net:*       -- end-to-end wormhole simulation (16x16 mesh dual-path
//                  dynamic traffic): kernel events/sec of the full stack on
//                  the production scheduler.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/router.hpp"
#include "evsim/legacy_heap.hpp"
#include "evsim/scheduler.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

namespace {

using namespace mcnet;

double wall_seconds(const std::chrono::steady_clock::time_point t0) {
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

/// PHOLD-style hold model: `entities` self-rescheduling events, exponential
/// holds with mean `mean_s`.  The per-entity xorshift streams make the
/// workload identical on any kernel with (time, schedule-order) dispatch.
template <typename Sched>
struct Phold {
  Sched& sched;
  std::vector<std::uint64_t> state;
  double mean_s;

  Phold(Sched& s, std::uint32_t entities, double mean) : sched(s), mean_s(mean) {
    state.resize(entities);
    for (std::uint32_t i = 0; i < entities; ++i) {
      state[i] = 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull);
      arm(i, draw(i));
    }
  }

  double draw(std::uint32_t i) {
    std::uint64_t& s = state[i];
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const double u = static_cast<double>(s >> 11) * 0x1.0p-53 + 0x1.0p-54;
    return mean_s * -std::log(u);
  }

  void arm(std::uint32_t i, double dt) {
    sched.schedule_at(sched.now() + dt, [this, i] { arm(i, draw(i)); });
  }
};

struct HoldResult {
  std::uint64_t events = 0;
  double events_per_s = 0.0;
  std::size_t peak_pending = 0;
};

template <typename Sched>
HoldResult run_hold(std::uint32_t entities, std::uint64_t target_events, double mean_s) {
  Sched sched;
  Phold<Sched> model(sched, entities, mean_s);
  const double t_end =
      static_cast<double>(target_events) * mean_s / static_cast<double>(entities);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t n = sched.run_until(t_end);
  const double wall = wall_seconds(t0);
  return {n, static_cast<double>(n) / wall, sched.pending()};
}

/// Headline workload, calendar kernel: uniform traffic with reliable
/// delivery.  Each node sends with exponential gaps; every send arms a 1 s
/// timeout backstop and cancels the previous one (completion beat the
/// timeout).  Cancellation is real -- the backstop's closure dies
/// immediately and carcass compaction keeps the overflow band bounded.
HoldResult run_reliable_calendar(std::uint32_t entities, std::uint64_t target_events,
                                 double mean_s) {
  evsim::Scheduler sched;
  std::vector<std::uint64_t> state(entities);
  std::vector<evsim::EventId> backstop(entities);
  struct Model {
    evsim::Scheduler& sched;
    std::vector<std::uint64_t>& st;
    std::vector<evsim::EventId>& bs;
    double mean;
    double draw(std::uint32_t i) {
      std::uint64_t& s = st[i];
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      const double u = static_cast<double>(s >> 11) * 0x1.0p-53 + 0x1.0p-54;
      return mean * -std::log(u);
    }
    void send(std::uint32_t i) {
      sched.cancel(bs[i]);  // previous message completed: kill its backstop
      bs[i] = sched.schedule_in(1.0, [] { /* would abort the transfer */ });
      sched.schedule_in(draw(i), [this, i] { send(i); });
    }
  } model{sched, state, backstop, mean_s};
  for (std::uint32_t i = 0; i < entities; ++i) {
    state[i] = 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull);
    model.send(i);
  }
  const double t_end =
      static_cast<double>(target_events) * mean_s / static_cast<double>(entities);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t n = sched.run_until(t_end);
  const double wall = wall_seconds(t0);
  return {n, static_cast<double>(n) / wall, sched.pending()};
}

/// The same workload on the heap kernel, written the only way it can be:
/// no cancellation handles, so every backstop stays queued with a
/// shared settled-flag and fires as a stale no-op -- the pending set grows
/// by one dead closure per send for the whole run.
HoldResult run_reliable_heap(std::uint32_t entities, std::uint64_t target_events,
                             double mean_s) {
  evsim::LegacyHeapScheduler sched;
  std::vector<std::uint64_t> state(entities);
  std::vector<std::shared_ptr<bool>> settled(entities);
  struct Model {
    evsim::LegacyHeapScheduler& sched;
    std::vector<std::uint64_t>& st;
    std::vector<std::shared_ptr<bool>>& settled;
    double mean;
    double draw(std::uint32_t i) {
      std::uint64_t& s = st[i];
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      const double u = static_cast<double>(s >> 11) * 0x1.0p-53 + 0x1.0p-54;
      return mean * -std::log(u);
    }
    void send(std::uint32_t i) {
      if (settled[i]) *settled[i] = true;  // previous message completed
      auto flag = std::make_shared<bool>(false);
      settled[i] = flag;
      sched.schedule_in(1.0, [flag] {
        if (!*flag) { /* would abort the transfer */
        }
      });
      sched.schedule_in(draw(i), [this, i] { send(i); });
    }
  } model{sched, state, settled, mean_s};
  for (std::uint32_t i = 0; i < entities; ++i) {
    state[i] = 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull);
    model.send(i);
  }
  const double t_end =
      static_cast<double>(target_events) * mean_s / static_cast<double>(entities);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t n = sched.run_until(t_end);
  const double wall = wall_seconds(t0);
  return {n, static_cast<double>(n) / wall, sched.pending()};
}

/// Service-timeout pattern, calendar kernel: each op arms a 1 s timeout
/// backstop, completes after `mean_s`, and cancels the backstop for real.
HoldResult run_timeout_calendar(std::uint64_t ops, double mean_s) {
  evsim::Scheduler sched;
  std::uint64_t remaining = ops;
  const auto t0 = std::chrono::steady_clock::now();
  std::function<void()> next = [&] {
    if (remaining-- == 0) return;
    bool* fired = new bool(false);
    const evsim::EventId timeout = sched.schedule_in(1.0, [fired] { *fired = true; });
    sched.schedule_in(mean_s, [&sched, timeout, fired, &next] {
      sched.cancel(timeout);  // the backstop dies unfired
      delete fired;
      next();
    });
  };
  next();
  const std::uint64_t n = sched.run();
  const double wall = wall_seconds(t0);
  return {n, static_cast<double>(ops) / wall};
}

/// The same pattern on the heap kernel, the only way it could be written
/// there: the timeout closure stays queued and fires as a stale no-op.
HoldResult run_timeout_heap(std::uint64_t ops, double mean_s) {
  evsim::LegacyHeapScheduler sched;
  std::uint64_t remaining = ops;
  const auto t0 = std::chrono::steady_clock::now();
  std::function<void()> next = [&] {
    if (remaining-- == 0) return;
    auto fired = std::make_shared<bool>(false);
    sched.schedule_in(1.0, [fired] {
      if (!*fired) { /* would abort the op */
      }
    });
    sched.schedule_in(mean_s, [fired, &next] {
      *fired = true;
      next();
    });
  };
  next();
  const std::uint64_t n = sched.run();
  const double wall = wall_seconds(t0);
  return {n, static_cast<double>(ops) / wall};
}

struct NetResult {
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  double events_per_s = 0.0;
};

NetResult run_network(double sim_horizon_s) {
  evsim::Scheduler sched;
  const topo::Mesh2D mesh(16, 16);
  const auto router = mcast::make_router(mesh, mcast::Algorithm::kDualPath);
  worm::WormholeParams params;
  worm::Network network(mesh, params, sched);
  std::uint64_t deliveries = 0;
  worm::NetworkHooks hooks;
  hooks.on_delivery = [&deliveries](std::uint64_t, topo::NodeId, double) { ++deliveries; };
  network.set_hooks(std::move(hooks));
  worm::TrafficConfig tc;
  tc.mean_interarrival_s = 150e-6;
  tc.avg_destinations = 8;
  tc.seed = 4242;
  worm::TrafficDriver driver(sched, network, tc, *router);
  driver.start();
  const auto t0 = std::chrono::steady_clock::now();
  sched.run_until(sim_horizon_s);
  driver.stop();
  sched.run();
  const double wall = wall_seconds(t0);
  return {sched.events_dispatched(), deliveries,
          static_cast<double>(sched.events_dispatched()) / wall};
}

template <typename Fn>
HoldResult best_of(int reps, Fn&& fn) {
  HoldResult best;
  for (int r = 0; r < reps; ++r) {
    const HoldResult t = fn();
    best.events = t.events;
    best.peak_pending = t.peak_pending;
    if (t.events_per_s > best.events_per_s) best.events_per_s = t.events_per_s;
  }
  return best;
}

obs::Json point(double x, const HoldResult& r) {
  obs::Json p = obs::Json::object();
  p["x"] = obs::Json(x);
  p["y"] = obs::Json(r.events_per_s);
  p["events_per_s"] = obs::Json(r.events_per_s);
  p["events"] = obs::Json(r.events);
  return p;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IONBF, 0);  // progress lines land immediately
  bench::JsonReporter json("bench_kernel");

  const std::uint32_t headline_nodes = 65536;
  const double mean_s = 1e-6;
  const std::uint64_t headline_events =
      static_cast<std::uint64_t>(bench::scaled_count(4000000));

  json.meta()["hold_mean_s"] = obs::Json(mean_s);
  json.meta()["headline_nodes"] = obs::Json(headline_nodes);
  json.meta()["headline_events"] = obs::Json(headline_events);

  std::printf("kernel throughput: hold mean %.0f ns, %llu headline events (scale %.2f)\n\n",
              mean_s * 1e9, static_cast<unsigned long long>(headline_events),
              bench::bench_scale());

  // -- Headline: 64k-node uniform traffic with reliable-delivery timeouts ---
  {
    const HoldResult cal = best_of(3, [&] {
      return run_reliable_calendar(headline_nodes, headline_events, mean_s);
    });
    const HoldResult heap = best_of(3, [&] {
      return run_reliable_heap(headline_nodes, headline_events, mean_s);
    });
    const double speedup = cal.events_per_s / heap.events_per_s;
    std::printf("headline (%u nodes, uniform traffic + 1 s reliable-delivery backstops):\n",
                headline_nodes);
    std::printf("  calendar kernel (true cancel):  %12.0f events/s, peak pending %zu\n",
                cal.events_per_s, cal.peak_pending);
    std::printf("  heap kernel (stale backstops):  %12.0f events/s, peak pending %zu\n",
                heap.events_per_s, heap.peak_pending);
    std::printf("  speedup %.2fx\n\n", speedup);
    obs::Json& h = json.meta()["headline"];
    h = obs::Json::object();
    h["nodes"] = obs::Json(headline_nodes);
    h["calendar_events_per_s"] = obs::Json(cal.events_per_s);
    h["heap_events_per_s"] = obs::Json(heap.events_per_s);
    h["calendar_peak_pending"] = obs::Json(cal.peak_pending);
    h["heap_peak_pending"] = obs::Json(heap.peak_pending);
    h["speedup"] = obs::Json(speedup);
    json.add_point("headline:calendar", point(static_cast<double>(headline_nodes), cal));
    json.add_point("headline:heap", point(static_cast<double>(headline_nodes), heap));
  }

  // -- Hold-model population sweep ------------------------------------------
  std::printf("%10s %16s %16s %10s\n", "pending", "calendar ev/s", "heap ev/s", "ratio");
  for (const std::uint32_t n : {1024u, 8192u, 65536u, 262144u}) {
    const std::uint64_t target = static_cast<std::uint64_t>(bench::scaled_count(1000000));
    const HoldResult cal =
        best_of(2, [&] { return run_hold<evsim::Scheduler>(n, target, mean_s); });
    const HoldResult heap =
        best_of(2, [&] { return run_hold<evsim::LegacyHeapScheduler>(n, target, mean_s); });
    std::printf("%10u %16.0f %16.0f %9.2fx\n", n, cal.events_per_s, heap.events_per_s,
                cal.events_per_s / heap.events_per_s);
    json.add_point("hold:calendar", point(static_cast<double>(n), cal));
    json.add_point("hold:heap", point(static_cast<double>(n), heap));
  }
  std::printf("\n");

  // -- Timeout/cancellation pattern -----------------------------------------
  {
    const std::uint64_t ops = static_cast<std::uint64_t>(bench::scaled_count(400000));
    const HoldResult cal = best_of(2, [&] { return run_timeout_calendar(ops, mean_s); });
    const HoldResult heap = best_of(2, [&] { return run_timeout_heap(ops, mean_s); });
    std::printf("timeout pattern (%llu ops, 1 s backstop each):\n",
                static_cast<unsigned long long>(ops));
    std::printf("  calendar (true cancel):  %12.0f ops/s, %llu dispatches\n",
                cal.events_per_s, static_cast<unsigned long long>(cal.events));
    std::printf("  heap (stale no-op fire): %12.0f ops/s, %llu dispatches\n\n",
                heap.events_per_s, static_cast<unsigned long long>(heap.events));
    json.add_point("timeout:calendar", point(static_cast<double>(ops), cal));
    json.add_point("timeout:heap", point(static_cast<double>(ops), heap));
  }

  // -- Full-stack wormhole simulation ---------------------------------------
  {
    const double horizon = 5e-3 * bench::bench_scale();
    const NetResult net = run_network(horizon);
    std::printf("network run (16x16 mesh, dual-path, %.1f ms sim):\n", horizon * 1e3);
    std::printf("  %llu kernel events, %llu deliveries, %12.0f events/s\n",
                static_cast<unsigned long long>(net.events),
                static_cast<unsigned long long>(net.deliveries), net.events_per_s);
    obs::Json p = obs::Json::object();
    p["x"] = obs::Json(horizon);
    p["y"] = obs::Json(net.events_per_s);
    p["events_per_s"] = obs::Json(net.events_per_s);
    p["events"] = obs::Json(net.events);
    p["deliveries"] = obs::Json(net.deliveries);
    json.add_point("net:calendar", p);
  }

  return json.write() ? 0 : 1;
}
