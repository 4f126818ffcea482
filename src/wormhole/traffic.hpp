// Dynamic workload generation (Section 7.2): every node runs a multicast
// generator that repeatedly waits a random interarrival time, draws a
// uniform random destination set, and injects the multicast routed by the
// algorithm under test.
#pragma once

#include <cstdint>
#include <vector>

#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "wormhole/network.hpp"

namespace mcnet::mcast {
class Router;
}

namespace mcnet::worm {

struct TrafficConfig {
  /// Mean time between multicasts per node (the paper's reference point is
  /// 300 us).
  double mean_interarrival_s = 300e-6;
  /// Average number of destinations; the count is drawn uniformly from
  /// [1, 2*avg - 1] (mean = avg) unless `fixed_destinations`.
  std::uint32_t avg_destinations = 10;
  bool fixed_destinations = false;
  /// Interarrival distribution: uniform on [0, 2*mean) by default (the
  /// paper's "uniformly random" interval), exponential when set.
  bool exponential_interarrival = false;
  std::uint64_t seed = 1;
};

/// Drives one generator per node on the shared scheduler.
class TrafficDriver {
 public:
  /// Route every generated multicast through `router` (which must outlive
  /// the driver).
  TrafficDriver(evsim::Scheduler& sched, Network& network, TrafficConfig config,
                const mcast::Router& router);

  /// Schedule the first arrival of every node's generator.
  void start();
  /// Stop generating (in-flight worms continue draining).
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  void arrival(topo::NodeId node);
  [[nodiscard]] double next_gap(evsim::Rng& rng);

  evsim::Scheduler* sched_;
  Network* network_;
  TrafficConfig config_;
  const mcast::Router* router_;
  std::vector<evsim::Rng> rngs_;  // one stream per node
  bool stopped_ = false;
};

}  // namespace mcnet::worm
