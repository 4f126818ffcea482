#include "service/multicast_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/router.hpp"
#include "evsim/random.hpp"
#include "fault/fault_router.hpp"
#include "obs/metrics.hpp"
#include "wormhole/worm.hpp"

namespace mcnet::svc {

void RetryPolicy::validate() const {
  if (max_attempts == 0) {
    throw std::invalid_argument("RetryPolicy.max_attempts must be >= 1 (got 0)");
  }
  if (!(timeout_s > 0.0) || !std::isfinite(timeout_s)) {
    throw std::invalid_argument("RetryPolicy.timeout_s must be positive and finite (got " +
                                std::to_string(timeout_s) + ")");
  }
  if (!(backoff_initial_s > 0.0) || !std::isfinite(backoff_initial_s)) {
    throw std::invalid_argument(
        "RetryPolicy.backoff_initial_s must be positive and finite (got " +
        std::to_string(backoff_initial_s) + ")");
  }
  if (!(backoff_factor >= 1.0) || !std::isfinite(backoff_factor)) {
    throw std::invalid_argument("RetryPolicy.backoff_factor must be >= 1 (got " +
                                std::to_string(backoff_factor) + ")");
  }
  if (!(jitter >= 0.0 && jitter < 1.0)) {
    throw std::invalid_argument("RetryPolicy.jitter must be in [0, 1) (got " +
                                std::to_string(jitter) + ")");
  }
}

/// One reliable multicast from first attempt to final report.
struct MulticastService::ReliableOp {
  std::uint64_t id = 0;
  topo::NodeId source = 0;
  RetryPolicy policy;
  ReportFn on_report;
  DeliveryFn on_delivery;
  std::size_t total = 0;  // destinations awaiting a terminal status
  std::unordered_map<topo::NodeId, DeliveryReport::Destination> final_;
  std::uint32_t attempts_used = 0;
  bool reported = false;
  /// Per-operation jitter stream (used only when policy.jitter > 0).
  evsim::Rng jitter_rng{0};
};

/// Live state of one attempt: which destinations it still owes.
struct MulticastService::AttemptTrack {
  std::unordered_set<topo::NodeId> remaining;
  bool settled = false;  // attempt finished (done, or timed out and aborted)
  /// The timeout backstop event; cancelled outright when the attempt
  /// settles early, so no expired-timeout closure lingers in the kernel
  /// holding the op/track alive.
  evsim::EventId timeout;
};

void MulticastService::reliable_finalize(ReliableOp& op, topo::NodeId node,
                                         DeliveryReport::Status status,
                                         std::uint32_t attempt, double latency_s) {
  // First terminal status wins: a destination delivered on attempt n keeps
  // that attempt count and status even if a later code path re-finalizes it
  // (emplace never overwrites an existing entry).
  op.final_.emplace(node, DeliveryReport::Destination{node, status, attempt, latency_s});
}

MulticastService::MulticastService(const mcast::Router& router,
                                   const worm::WormholeParams& params,
                                   evsim::Scheduler& sched)
    : MulticastService(router, nullptr, params, sched) {}

MulticastService::MulticastService(const fault::FaultAwareRouter& router,
                                   const worm::WormholeParams& params,
                                   evsim::Scheduler& sched)
    : MulticastService(router, &router, params, sched) {}

MulticastService::MulticastService(const mcast::Router& router,
                                   const fault::FaultAwareRouter* fault_router,
                                   const worm::WormholeParams& params,
                                   evsim::Scheduler& sched)
    : router_(&router),
      fault_router_(fault_router),
      topology_(&router.topology()),
      sched_(&sched),
      // A fault-aware service shares the router's FaultState, so fail/recover
      // calls and routing decisions agree on the failure set.
      network_(std::make_unique<worm::Network>(
          router.topology(), params, sched,
          fault_router != nullptr ? fault_router->fault_state() : nullptr)) {
  worm::NetworkHooks hooks;
  hooks.on_delivery = [this](std::uint64_t msg, topo::NodeId dest, double latency) {
    const auto it = pending_.find(msg);
    if (it != pending_.end() && it->second.on_delivery) it->second.on_delivery(dest, latency);
  };
  hooks.on_message_done = [this](std::uint64_t msg, double latency) {
    const auto it = pending_.find(msg);
    if (it == pending_.end()) return;
    // Detach before invoking: the callback may send again.
    const DoneFn done = std::move(it->second.on_done);
    pending_.erase(it);
    if (done) done(latency);
  };
  network_->set_hooks(std::move(hooks));
}

void MulticastService::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    network_->set_metrics(nullptr);
    return;
  }
  metrics_.multicasts = &registry->counter("service.multicasts");
  metrics_.retries = &registry->counter("service.retries");
  metrics_.timeouts = &registry->counter("service.timeouts");
  metrics_.reports = &registry->counter("service.reports");
  metrics_.delivered = &registry->counter("service.delivered");
  metrics_.dropped = &registry->counter("service.dropped");
  metrics_.unreachable = &registry->counter("service.unreachable");
  network_->set_metrics(registry);
}

MulticastService::Handle MulticastService::multicast(const mcast::MulticastRequest& request,
                                                     DeliveryFn on_delivery, DoneFn on_done) {
  if (metrics_.active()) metrics_.multicasts->inc();
  const mcast::MulticastRequest req = request.normalized(topology_->num_nodes());
  const mcast::MulticastRoute route = router_->route(req);
  // Register the callbacks under the id inject() is about to assign BEFORE
  // injecting: when every worm dies at injection time (route crossing
  // already-failed hardware), on_message_done fires synchronously inside
  // inject() and a late registration would silently drop the callback.
  const Handle h = network_->messages_injected();
  if (on_delivery || on_done) {
    pending_[h] = Pending{std::move(on_delivery), std::move(on_done)};
  }
  const Handle injected = network_->inject(router_->specs(route));
  (void)injected;  // == h: message ids are assigned sequentially
  return h;
}

std::uint64_t MulticastService::multicast_reliable(const mcast::MulticastRequest& request,
                                                   ReportFn on_report, RetryPolicy policy,
                                                   DeliveryFn on_delivery) {
  if (fault_router_ == nullptr) {
    throw std::logic_error(
        "multicast_reliable needs the FaultAwareRouter constructor (no fault state bound)");
  }
  policy.validate();

  const mcast::MulticastRequest req = request.normalized(topology_->num_nodes());
  auto op = std::make_shared<ReliableOp>();
  op->id = next_reliable_id_++;
  op->source = req.source;
  op->policy = policy;
  op->on_report = std::move(on_report);
  op->on_delivery = std::move(on_delivery);
  op->total = req.destinations.size();
  op->jitter_rng = evsim::Rng(evsim::derive_seed(policy.jitter_seed, op->id));
  reliable_attempt(op, req.destinations, 1);
  return op->id;
}

void MulticastService::reliable_maybe_report(const std::shared_ptr<ReliableOp>& op) {
  if (op->reported || op->final_.size() < op->total) return;
  op->reported = true;
  if (metrics_.active()) {
    metrics_.reports->inc();
    for (const auto& [node, dest] : op->final_) {
      switch (dest.status) {
        case DeliveryReport::Status::kDelivered:
          metrics_.delivered->inc();
          break;
        case DeliveryReport::Status::kDropped:
          metrics_.dropped->inc();
          break;
        case DeliveryReport::Status::kUnreachable:
          metrics_.unreachable->inc();
          break;
      }
    }
  }
  DeliveryReport report;
  report.attempts_used = op->attempts_used;
  report.finished_at_s = sched_->now();
  report.destinations.reserve(op->final_.size());
  for (const auto& [node, dest] : op->final_) report.destinations.push_back(dest);
  std::sort(report.destinations.begin(), report.destinations.end(),
            [](const auto& a, const auto& b) { return a.node < b.node; });
  if (op->on_report) op->on_report(report);
}

void MulticastService::reliable_attempt(const std::shared_ptr<ReliableOp>& op,
                                        std::vector<topo::NodeId> destinations,
                                        std::uint32_t attempt) {
  op->attempts_used = std::max(op->attempts_used, attempt);
  if (attempt > 1 && metrics_.active()) metrics_.retries->inc();
  // Route around everything failed *now*; partitioned destinations are
  // terminal immediately (no point burning the retry budget on them).
  const fault::FaultRouteResult routed =
      fault_router_->route_with_faults({op->source, destinations});
  for (const topo::NodeId u : routed.unreachable) {
    reliable_finalize(*op, u, DeliveryReport::Status::kUnreachable, attempt, -1.0);
  }
  std::vector<topo::NodeId> routable;
  routable.reserve(destinations.size());
  {
    std::unordered_set<topo::NodeId> cut(routed.unreachable.begin(),
                                         routed.unreachable.end());
    for (const topo::NodeId d : destinations) {
      if (cut.find(d) == cut.end()) routable.push_back(d);
    }
  }
  if (routable.empty()) {
    reliable_maybe_report(op);
    return;
  }

  auto att = std::make_shared<AttemptTrack>();
  att->remaining.insert(routable.begin(), routable.end());

  std::vector<worm::WormSpec> specs = router_->specs(routed.route);
  if (specs.empty()) {
    // Defensive: nothing to inject means nothing can deliver; go straight
    // to the retry/terminal path instead of waiting out the timeout.
    reliable_attempt_done(op, att, attempt);
    return;
  }
  // Register before injecting: a fully-killed-at-injection message fires
  // on_message_done synchronously inside inject().
  const Handle h = network_->messages_injected();
  pending_[h] = Pending{
      [op, att, attempt](topo::NodeId dest, double latency) {
        if (att->settled || att->remaining.erase(dest) == 0) return;
        reliable_finalize(*op, dest, DeliveryReport::Status::kDelivered, attempt,
                             latency);
        if (op->on_delivery) op->on_delivery(dest, latency);
      },
      [this, op, att, attempt](double) { reliable_attempt_done(op, att, attempt); }};
  (void)network_->inject(std::move(specs));

  // Timeout backstop: whatever is still in flight when it expires is
  // aborted, which drops the undelivered destinations and fires the done
  // callback above.  This is what guarantees the simulation cannot hang on
  // a reliable message, deadlocked fallback routes included.
  att->timeout = sched_->schedule_in(op->policy.timeout_s, [this, att, h] {
    if (!att->settled) {
      if (metrics_.active()) metrics_.timeouts->inc();
      network_->abort_message(h);
    }
  });
}

void MulticastService::reliable_attempt_done(const std::shared_ptr<ReliableOp>& op,
                                             const std::shared_ptr<AttemptTrack>& att,
                                             std::uint32_t attempt) {
  att->settled = true;
  sched_->cancel(att->timeout);  // settled early: the backstop dies unfired
  std::vector<topo::NodeId> failed(att->remaining.begin(), att->remaining.end());
  std::sort(failed.begin(), failed.end());  // deterministic retry order
  if (failed.empty()) {
    reliable_maybe_report(op);
    return;
  }
  if (attempt >= op->policy.max_attempts) {
    for (const topo::NodeId d : failed) {
      reliable_finalize(*op, d, DeliveryReport::Status::kDropped, attempt, -1.0);
    }
    reliable_maybe_report(op);
    return;
  }
  double delay = op->policy.backoff_initial_s *
                 std::pow(op->policy.backoff_factor, static_cast<double>(attempt - 1));
  if (op->policy.jitter > 0.0) {
    // Deterministic desynchronisation: scale by [1 - j, 1 + j) from the
    // per-operation stream, so ops that dropped together retry spread out.
    delay *= op->jitter_rng.uniform(1.0 - op->policy.jitter, 1.0 + op->policy.jitter);
  }
  sched_->schedule_in(delay, [this, op, failed, attempt] {
    reliable_attempt(op, failed, attempt + 1);
  });
}

}  // namespace mcnet::svc
