#include "fault/fault_router.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mcnet::fault {

FaultAwareRouter::FaultAwareRouter(std::unique_ptr<mcast::Router> inner,
                                   std::shared_ptr<FaultState> faults)
    : inner_(std::move(inner)),
      cache_(dynamic_cast<mcast::CachingRouter*>(inner_.get())),
      faults_(std::move(faults)),
      seen_epoch_(0) {
  if (!inner_) throw std::invalid_argument("FaultAwareRouter: inner router must not be null");
  if (!faults_) throw std::invalid_argument("FaultAwareRouter: fault state must not be null");
  if (&inner_->topology() != &faults_->topology() &&
      inner_->topology().num_channels() != faults_->topology().num_channels()) {
    throw std::invalid_argument("FaultAwareRouter: fault state built for another topology");
  }
  seen_epoch_.store(faults_->epoch(), std::memory_order_release);
}

void FaultAwareRouter::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_fallbacks_ = metric_partitions_ = metric_invalidations_ = nullptr;
    return;
  }
  metric_fallbacks_ = &registry->counter("fault.fallbacks");
  metric_partitions_ = &registry->counter("fault.partitions");
  metric_invalidations_ = &registry->counter("fault.epoch_invalidations");
  if (cache_ != nullptr) cache_->set_metrics(registry);
}

void FaultAwareRouter::sync_epoch() const {
  const std::uint64_t epoch = faults_->epoch();
  std::uint64_t seen = seen_epoch_.load(std::memory_order_acquire);
  if (epoch == seen) return;
  // One caller wins the CAS and clears; late epochs re-clear, which is
  // correct (just redundant) since stale entries are gone either way.
  if (seen_epoch_.compare_exchange_strong(seen, epoch, std::memory_order_acq_rel) &&
      cache_ != nullptr) {
    cache_->clear();
    if (metric_invalidations_ != nullptr) metric_invalidations_->inc();
  }
}

bool FaultAwareRouter::route_usable(const mcast::MulticastRoute& route) const {
  if (faults_->healthy()) return true;
  const topo::Topology& t = inner_->topology();
  for (const mcast::PathRoute& p : route.paths) {
    for (std::size_t i = 0; i + 1 < p.nodes.size(); ++i) {
      if (!faults_->channel_usable(t.channel(p.nodes[i], p.nodes[i + 1]))) return false;
    }
  }
  for (const mcast::TreeRoute& tree : route.trees) {
    for (const mcast::TreeRoute::Link& l : tree.links) {
      if (!faults_->channel_usable(t.channel(l.from, l.to))) return false;
    }
  }
  return true;
}

mcast::MulticastRoute FaultAwareRouter::unicast_split(
    NodeId source, const std::vector<NodeId>& destinations) const {
  const topo::Topology& t = inner_->topology();
  // BFS parent forest from the source over usable channels.
  std::vector<NodeId> parent(t.num_nodes(), topo::kInvalidNode);
  parent[source] = source;
  std::deque<NodeId> frontier{source};
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const NodeId v : t.neighbors(u)) {
      if (parent[v] != topo::kInvalidNode) continue;
      if (!faults_->channel_usable(t.channel(u, v))) continue;
      parent[v] = u;
      frontier.push_back(v);
    }
  }

  mcast::MulticastRoute route;
  route.source = source;
  route.paths.reserve(destinations.size());
  for (const NodeId d : destinations) {
    if (parent[d] == topo::kInvalidNode) {
      throw std::logic_error("unicast_split: destination unreachable");
    }
    mcast::PathRoute path;
    for (NodeId u = d; u != source; u = parent[u]) path.nodes.push_back(u);
    path.nodes.push_back(source);
    std::reverse(path.nodes.begin(), path.nodes.end());
    path.delivery_hops.push_back(static_cast<std::uint32_t>(path.nodes.size() - 1));
    route.paths.push_back(std::move(path));
  }
  return route;
}

FaultRouteResult FaultAwareRouter::route_with_faults(
    const mcast::MulticastRequest& request) const {
  sync_epoch();
  const topo::Topology& t = inner_->topology();
  const mcast::MulticastRequest req = request.normalized(t.num_nodes());

  FaultRouteResult result;
  result.epoch = faults_->epoch();
  result.route.source = req.source;
  if (faults_->healthy()) {
    result.route = inner_->route(req);
    return result;
  }

  // Partition detection: reachability over the degraded topology decides
  // exactly which destinations can be served at all.
  const std::vector<std::uint8_t> seen = faults_->reachable_from(req.source);
  std::vector<NodeId> reachable;
  reachable.reserve(req.destinations.size());
  for (const NodeId d : req.destinations) {
    if (seen[d] != 0) {
      reachable.push_back(d);
    } else {
      result.unreachable.push_back(d);
    }
  }
  if (!result.unreachable.empty() && metric_partitions_ != nullptr) {
    metric_partitions_->inc();
  }
  if (reachable.empty()) return result;

  // Prefer the wrapped algorithm's route when it happens to dodge every
  // failure; otherwise split into per-destination BFS unicasts.
  try {
    mcast::MulticastRoute candidate =
        inner_->route(mcast::MulticastRequest{req.source, reachable});
    if (route_usable(candidate)) {
      result.route = std::move(candidate);
      return result;
    }
  } catch (const std::exception&) {
    // Some algorithms throw on shapes they cannot route; fall through.
  }
  result.degraded = true;
  if (metric_fallbacks_ != nullptr) metric_fallbacks_->inc();
  result.route = unicast_split(req.source, reachable);
  return result;
}

mcast::MulticastRoute FaultAwareRouter::route(const mcast::MulticastRequest& request) const {
  FaultRouteResult result = route_with_faults(request);
  if (!result.unreachable.empty()) {
    throw std::runtime_error("multicast destination " +
                             std::to_string(result.unreachable.front()) +
                             " is unreachable in the degraded topology (" +
                             std::to_string(result.unreachable.size()) + " of " +
                             std::to_string(request.destinations.size()) + " cut off)");
  }
  return std::move(result.route);
}

std::unique_ptr<FaultAwareRouter> make_fault_aware_router(
    const topo::Topology& topology, mcast::Algorithm algorithm,
    std::shared_ptr<FaultState> faults, std::uint8_t copies,
    mcast::RouteCacheConfig cache_config) {
  return std::make_unique<FaultAwareRouter>(
      std::make_unique<mcast::CachingRouter>(mcast::make_router(topology, algorithm, copies),
                                             cache_config),
      std::move(faults));
}

}  // namespace mcnet::fault
