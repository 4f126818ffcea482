#include "service/multicast_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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
  if (max_attempts < 2) return;
  // Worst case of one operation: every attempt times out and every backoff
  // draws its largest jitter.  Each retry is scheduled at now + wait, so the
  // clock carries the earlier waits: the whole span, not only the longest
  // wait, must be finite, or a late attempt lands at +inf and drags the
  // simulated clock there.  The waits never shrink, so max_attempts times
  // (timeout_s + the longest wait) bounds the span; only a policy whose
  // bound overflows has its waits summed one by one.
  const double attempts = static_cast<double>(max_attempts);
  const double first_wait = backoff_initial_s * (1.0 + jitter);
  const double longest_wait = first_wait * std::pow(backoff_factor, attempts - 2.0);
  if (std::isfinite(attempts * (timeout_s + longest_wait))) return;
  double span = timeout_s;  // attempt 1 times out
  double wait = first_wait;
  // 64-bit counter: with max_attempts 2^32-1 a 32-bit one would wrap.
  for (std::uint64_t attempt = 2; attempt <= max_attempts; ++attempt) {
    span += wait + timeout_s;  // back off, then this attempt times out
    if (!std::isfinite(span)) {
      throw std::invalid_argument(
          "RetryPolicy.backoff_factor, backoff_initial_s, timeout_s and max_attempts overflow "
          "the retry schedule: attempt " +
          std::to_string(attempt) + " of " + std::to_string(max_attempts) +
          " would start or time out at +inf (the worst-case span, max_attempts * timeout_s "
          "plus backoff_initial_s * backoff_factor^(n-1) * (1 + jitter) for n = 1 .. "
          "max_attempts-1, is not finite)");
    }
    wait *= backoff_factor;
  }
}

/// One reliable multicast from first attempt to final report.
struct MulticastService::ReliableOp {
  std::uint64_t id = 0;
  topo::NodeId source = 0;
  RetryPolicy policy;
  ReportFn on_report;
  DeliveryFn on_delivery;
  /// One entry per destination, sorted by node.  An entry is open (no
  /// terminal status yet) while its attempts count is 0: attempts count
  /// from 1.
  std::vector<DeliveryReport::Destination> final_;
  std::size_t open = 0;  // entries of final_ still open
  std::uint32_t attempts_used = 0;
  bool reported = false;
  /// Per-operation jitter stream, seeded on the first jittered backoff.
  std::unique_ptr<evsim::Rng> jitter_rng;
};

/// Live state of one attempt: which destinations it still owes.
struct MulticastService::AttemptTrack {
  std::shared_ptr<ReliableOp> op;
  std::uint32_t attempt = 0;
  Handle message = 0;  // the attempt's network message
  std::vector<topo::NodeId> remaining;  // sorted
  bool settled = false;  // attempt finished (done, or timed out and aborted)
  /// The timeout backstop event; cancelled outright when the attempt
  /// settles early, so no expired-timeout closure lingers in the kernel
  /// holding the op/track alive.
  evsim::EventId timeout;
};

void MulticastService::reliable_finalize(ReliableOp& op, topo::NodeId node,
                                         DeliveryReport::Status status,
                                         std::uint32_t attempt, double latency_s) {
  const auto it = std::lower_bound(
      op.final_.begin(), op.final_.end(), node,
      [](const DeliveryReport::Destination& d, topo::NodeId n) { return d.node < n; });
  // First terminal status wins: a destination delivered on attempt n keeps
  // that attempt count and status even if a later code path re-finalizes it.
  if (it == op.final_.end() || it->node != node || it->attempts != 0) return;
  *it = DeliveryReport::Destination{node, status, attempt, latency_s};
  --op.open;
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

  mcast::MulticastRequest req = request.normalized(topology_->num_nodes());
  auto op = std::make_shared<ReliableOp>();
  op->id = next_reliable_id_++;
  op->source = req.source;
  op->policy = policy;
  op->on_report = std::move(on_report);
  op->on_delivery = std::move(on_delivery);
  op->final_.reserve(req.destinations.size());
  for (const topo::NodeId d : req.destinations) op->final_.push_back({.node = d});
  std::sort(op->final_.begin(), op->final_.end(),
            [](const auto& a, const auto& b) { return a.node < b.node; });
  op->open = op->final_.size();
  reliable_attempt(op, std::move(req.destinations), 1);
  return op->id;
}

void MulticastService::reliable_maybe_report(ReliableOp& op) {
  if (op.reported || op.open > 0) return;
  op.reported = true;
  if (metrics_.active()) {
    metrics_.reports->inc();
    for (const DeliveryReport::Destination& dest : op.final_) {
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
  report.destinations = op.final_;
  report.attempts_used = op.attempts_used;
  report.finished_at_s = sched_->now();
  if (op.on_report) op.on_report(report);
}

void MulticastService::reliable_attempt(const std::shared_ptr<ReliableOp>& op,
                                        std::vector<topo::NodeId> destinations,
                                        std::uint32_t attempt) {
  op->attempts_used = std::max(op->attempts_used, attempt);
  if (attempt > 1 && metrics_.active()) metrics_.retries->inc();
  // Route around everything failed *now*; partitioned destinations are
  // terminal immediately (no point burning the retry budget on them).
  mcast::MulticastRequest req{op->source, std::move(destinations)};
  const fault::FaultRouteResult routed = fault_router_->route_with_faults(req);
  std::vector<topo::NodeId> remaining = std::move(req.destinations);
  std::sort(remaining.begin(), remaining.end());
  for (const topo::NodeId u : routed.unreachable) {
    reliable_finalize(*op, u, DeliveryReport::Status::kUnreachable, attempt, -1.0);
    const auto it = std::lower_bound(remaining.begin(), remaining.end(), u);
    if (it != remaining.end() && *it == u) remaining.erase(it);
  }
  if (remaining.empty()) {
    reliable_maybe_report(*op);
    return;
  }

  auto att = std::make_shared<AttemptTrack>();
  att->op = op;
  att->attempt = attempt;
  att->remaining = std::move(remaining);

  std::vector<worm::WormSpec> specs = router_->specs(routed.route);
  if (specs.empty()) {
    // Defensive: nothing to inject means nothing can deliver; go straight
    // to the retry/terminal path instead of waiting out the timeout.
    reliable_attempt_done(att);
    return;
  }
  // Register before injecting: a fully-killed-at-injection message fires
  // on_message_done synchronously inside inject().
  att->message = network_->messages_injected();
  pending_[att->message] = Pending{
      [att](topo::NodeId dest, double latency) {
        if (att->settled) return;
        const auto it = std::lower_bound(att->remaining.begin(), att->remaining.end(), dest);
        if (it == att->remaining.end() || *it != dest) return;
        att->remaining.erase(it);
        ReliableOp& op = *att->op;
        reliable_finalize(op, dest, DeliveryReport::Status::kDelivered, att->attempt,
                          latency);
        if (op.on_delivery) op.on_delivery(dest, latency);
      },
      [this, att](double) { reliable_attempt_done(att); }};
  (void)network_->inject(std::move(specs));

  // Timeout backstop: whatever is still in flight when it expires is
  // aborted, which drops the undelivered destinations and fires the done
  // callback above.  This is what guarantees the simulation cannot hang on
  // a reliable message, deadlocked fallback routes included.
  att->timeout = sched_->schedule_in(op->policy.timeout_s, [this, att] {
    if (!att->settled) {
      if (metrics_.active()) metrics_.timeouts->inc();
      network_->abort_message(att->message);
    }
  });
}

void MulticastService::reliable_attempt_done(const std::shared_ptr<AttemptTrack>& att) {
  att->settled = true;
  sched_->cancel(att->timeout);  // settled early: the backstop dies unfired
  ReliableOp& op = *att->op;
  if (att->remaining.empty()) {
    reliable_maybe_report(op);
    return;
  }
  if (att->attempt >= op.policy.max_attempts) {
    for (const topo::NodeId d : att->remaining) {
      reliable_finalize(op, d, DeliveryReport::Status::kDropped, att->attempt, -1.0);
    }
    reliable_maybe_report(op);
    return;
  }
  double delay = op.policy.backoff_initial_s *
                 std::pow(op.policy.backoff_factor, static_cast<double>(att->attempt - 1));
  if (op.policy.jitter > 0.0) {
    // Deterministic desynchronisation: scale by [1 - j, 1 + j) from the
    // per-operation stream, so ops that dropped together retry spread out.
    if (!op.jitter_rng) {
      op.jitter_rng =
          std::make_unique<evsim::Rng>(evsim::derive_seed(op.policy.jitter_seed, op.id));
    }
    delay *= op.jitter_rng->uniform(1.0 - op.policy.jitter, 1.0 + op.policy.jitter);
  }
  // The undelivered destinations, still sorted, are the retry list.
  sched_->schedule_in(delay, [this, att] {
    reliable_attempt(att->op, std::move(att->remaining), att->attempt + 1);
  });
}

}  // namespace mcnet::svc
