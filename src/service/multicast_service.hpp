// System-supported multicast service (the Section 8.2 "future research"
// item made concrete): a process-facing message-passing interface layered
// over the routing algorithms and the wormhole simulator.
//
// The service owns a Network and routes through a mcast::Router; user code
// calls multicast()/unicast() and receives completion callbacks, without
// touching worms or channels.  Collective operations (barrier, broadcast,
// gather) are built on the same primitive, mirroring how the paper
// motivates multicast with barrier synchronisation and data distribution.
//
// Under failures (see fault/), multicast_reliable() degrades gracefully
// instead of hanging: every attempt carries a timeout (expiry aborts the
// attempt's worms), dropped destinations are retried with exponential
// backoff and re-routed around whatever has failed since, and callers get
// a DeliveryReport naming each destination delivered / dropped /
// unreachable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/multicast.hpp"
#include "evsim/scheduler.hpp"
#include "wormhole/network.hpp"

namespace mcnet::mcast {
class Router;
}
namespace mcnet::fault {
class FaultAwareRouter;
}
namespace mcnet::obs {
class MetricsRegistry;
class Counter;
}

namespace mcnet::svc {

/// Retry/backoff policy for multicast_reliable().  All times are simulated
/// seconds; the backoff sequence (jitter included) is fully determined by
/// the policy and the operation id, so runs replay exactly.
struct RetryPolicy {
  /// Total attempts per destination (1 = no retry).
  std::uint32_t max_attempts = 4;
  /// Per-attempt timeout: when it expires, the attempt's remaining worms
  /// are aborted and the undelivered destinations move to retry.
  double timeout_s = 500e-6;
  /// Delay before the first retry; attempt n waits
  /// backoff_initial_s * backoff_factor^(n-1).
  double backoff_initial_s = 50e-6;
  double backoff_factor = 2.0;
  /// Retry jitter fraction in [0, 1): each backoff delay is scaled by a
  /// factor drawn uniformly from [1 - jitter, 1 + jitter) on a stream
  /// seeded by (jitter_seed, operation id).  Senders whose messages drop
  /// at the same instant then retry desynchronised instead of re-colliding
  /// in lock-step (self-incast), while every run still replays exactly.
  double jitter = 0.0;
  std::uint64_t jitter_seed = 0x6d636e6574ULL;  // "mcnet"

  /// Throws std::invalid_argument naming the offending field when the
  /// policy cannot drive a terminating retry loop: max_attempts == 0,
  /// non-positive (or non-finite) timeout_s / backoff_initial_s,
  /// backoff_factor < 1, or jitter outside [0, 1).
  void validate() const;
};

/// Per-destination outcome of a reliable multicast.
struct DeliveryReport {
  enum class Status : std::uint8_t {
    kDelivered,    // message arrived (possibly after retries)
    kDropped,      // every attempt failed; retry budget exhausted
    kUnreachable,  // no usable path existed at routing time (partition)
  };

  struct Destination {
    topo::NodeId node = topo::kInvalidNode;
    Status status = Status::kDropped;
    /// Attempts spent on this destination (the successful one included).
    std::uint32_t attempts = 0;
    /// Delivery latency of the successful attempt (-1 when not delivered),
    /// measured from that attempt's injection.
    double latency_s = -1.0;
  };

  /// Sorted by node id.
  std::vector<Destination> destinations;
  /// Highest attempt number any destination consumed.
  std::uint32_t attempts_used = 0;
  /// Simulated time the report was finalised.
  double finished_at_s = 0.0;

  [[nodiscard]] std::size_t count(Status s) const {
    std::size_t n = 0;
    for (const Destination& d : destinations) n += d.status == s ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t delivered() const { return count(Status::kDelivered); }
  [[nodiscard]] std::size_t dropped() const { return count(Status::kDropped); }
  [[nodiscard]] std::size_t unreachable() const { return count(Status::kUnreachable); }
  [[nodiscard]] bool all_delivered() const { return delivered() == destinations.size(); }
};

class MulticastService {
 public:
  /// Wire the service onto an existing scheduler; `params` configure the
  /// simulated hardware.  Everything routes through `router` (e.g. from
  /// make_router()/make_caching_router()); the router must outlive the
  /// service and its channel-copy count drives worm-spec conversion.
  MulticastService(const mcast::Router& router, const worm::WormholeParams& params,
                   evsim::Scheduler& sched);

  /// Failure-aware wiring: the service's Network shares the router's
  /// FaultState, and multicast_reliable() becomes available.  The router
  /// must outlive the service.
  MulticastService(const fault::FaultAwareRouter& router,
                   const worm::WormholeParams& params, evsim::Scheduler& sched);

  using Handle = std::uint64_t;
  /// Callback fired once per destination as the full message arrives.
  using DeliveryFn = std::function<void(topo::NodeId destination, double latency_s)>;
  /// Callback fired when every destination has the message and the tail
  /// has drained.
  using DoneFn = std::function<void(double latency_s)>;
  /// Callback fired once per reliable multicast with the final report.
  using ReportFn = std::function<void(const DeliveryReport&)>;

  /// Send `request` (normalised: duplicate destinations deduped, source in
  /// the destination set rejected); callbacks are optional.
  Handle multicast(const mcast::MulticastRequest& request, DeliveryFn on_delivery = {},
                   DoneFn on_done = {});

  /// Fault-tolerant send: per-attempt timeout, bounded retry with
  /// exponential backoff for dropped destinations, unreachable reporting
  /// for partitioned ones.  `on_report` fires exactly once, when every
  /// destination reached a terminal status; the simulation never hangs on
  /// a reliable message.  `on_delivery` (optional) fires once per
  /// destination at the moment its first counted delivery lands, before
  /// the final report.  Requires the FaultAwareRouter constructor (throws
  /// std::logic_error otherwise).  Returns an operation id.
  std::uint64_t multicast_reliable(const mcast::MulticastRequest& request,
                                   ReportFn on_report, RetryPolicy policy = {},
                                   DeliveryFn on_delivery = {});

  /// True when this service was wired through a FaultAwareRouter, i.e.
  /// multicast_reliable() is available.
  [[nodiscard]] bool reliable_capable() const { return fault_router_ != nullptr; }

  [[nodiscard]] evsim::Scheduler& scheduler() { return *sched_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

  /// One-destination convenience.
  Handle unicast(topo::NodeId source, topo::NodeId destination, DoneFn on_done = {});

  /// Barrier: every node reports to `root` (unicast); once all reports are
  /// in, `root` multicasts the release; `on_released` fires when the last
  /// node is released.  Report payloads use the same message size as data.
  void barrier(topo::NodeId root, std::function<void(double finish_time_s)> on_released);

  /// Broadcast from `root` to all other nodes.
  Handle broadcast(topo::NodeId root, DoneFn on_done = {});

  /// Gather: every other node sends one message to `root`; `on_done` fires
  /// when the last one arrives.
  void gather(topo::NodeId root, std::function<void(double finish_time_s)> on_done);

  [[nodiscard]] const worm::Network& network() const { return *network_; }
  [[nodiscard]] worm::Network& network() { return *network_; }

  /// Register service-level counters on `registry` (nullptr detaches):
  /// service.multicasts, service.retries (re-attempts after drops),
  /// service.timeouts (attempts aborted by expiry), service.reports
  /// (reliable operations finalised), service.delivered / .dropped /
  /// .unreachable (per-destination terminal outcomes).  The owned Network
  /// registers its own instruments on the same registry.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct ReliableOp;     // one reliable multicast (defined in the .cpp)
  struct AttemptTrack;   // one attempt of it

  /// Shared body of the public constructors; `fault_router` is null for a
  /// plain Router, else the same object as `router`.
  MulticastService(const mcast::Router& router, const fault::FaultAwareRouter* fault_router,
                   const worm::WormholeParams& params, evsim::Scheduler& sched);

  void reliable_attempt(const std::shared_ptr<ReliableOp>& op,
                        std::vector<topo::NodeId> destinations, std::uint32_t attempt);
  void reliable_attempt_done(const std::shared_ptr<ReliableOp>& op,
                             const std::shared_ptr<AttemptTrack>& att,
                             std::uint32_t attempt);
  static void reliable_finalize(ReliableOp& op, topo::NodeId node,
                                DeliveryReport::Status status, std::uint32_t attempt,
                                double latency_s);
  /// Fire the report once every destination is terminal.
  void reliable_maybe_report(const std::shared_ptr<ReliableOp>& op);

  struct Metrics {
    obs::Counter* multicasts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* reports = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* unreachable = nullptr;

    [[nodiscard]] bool active() const { return multicasts != nullptr; }
  };

  const mcast::Router* router_;
  const fault::FaultAwareRouter* fault_router_;
  const topo::Topology* topology_;
  evsim::Scheduler* sched_;
  std::unique_ptr<worm::Network> network_;
  std::uint64_t next_reliable_id_ = 0;
  Metrics metrics_;

  struct Pending {
    DeliveryFn on_delivery;
    DoneFn on_done;
  };
  std::unordered_map<std::uint64_t, Pending> pending_;
};

}  // namespace mcnet::svc
