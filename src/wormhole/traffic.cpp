#include "wormhole/traffic.hpp"

#include <algorithm>

#include "core/router.hpp"

namespace mcnet::worm {

TrafficDriver::TrafficDriver(evsim::Scheduler& sched, Network& network, TrafficConfig config,
                             const mcast::Router& router)
    : sched_(&sched), network_(&network), config_(config), router_(&router) {
  const std::uint32_t n = network.topology().num_nodes();
  rngs_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    rngs_.emplace_back(evsim::derive_seed(config.seed, i));
  }
}

double TrafficDriver::next_gap(evsim::Rng& rng) {
  return config_.exponential_interarrival
             ? rng.exponential(config_.mean_interarrival_s)
             : rng.uniform(0.0, 2.0 * config_.mean_interarrival_s);
}

void TrafficDriver::start() {
  for (topo::NodeId node = 0; node < network_->topology().num_nodes(); ++node) {
    sched_->schedule_in(next_gap(rngs_[node]), [this, node] { arrival(node); });
  }
}

void TrafficDriver::arrival(topo::NodeId node) {
  if (stopped_) return;
  evsim::Rng& rng = rngs_[node];
  const std::uint32_t max_k = network_->topology().num_nodes() - 1;
  std::uint32_t k = config_.fixed_destinations
                        ? config_.avg_destinations
                        : rng.uniform_int(1, 2 * config_.avg_destinations - 1);
  k = std::min(k, max_k);
  const std::vector<topo::NodeId> dests =
      rng.sample_destinations(network_->topology().num_nodes(), node, k);
  network_->inject(router_->build(node, dests));
  sched_->schedule_in(next_gap(rng), [this, node] { arrival(node); });
}

}  // namespace mcnet::worm
