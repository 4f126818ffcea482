// The wormhole network simulator: drives worm trees through the channel
// pool on an evsim::Scheduler, records per-destination latency, and exposes
// the blocked-worm wait-for graph for deadlock analysis.
//
// Fault model: the network shares a fault::FaultState with the routing
// layer.  When a channel or node fails mid-flight, every worm holding or
// requesting the failed hardware is killed -- its channels release (waiters
// cascade normally), its queued requests are cancelled, and each
// not-yet-delivered destination is reported through the on_drop hook and
// counted.  A worm whose frontier reaches a failed channel later is killed
// at that point, so no worm ever blocks on dead hardware.  Recovery makes
// the hardware acquirable again; it never resurrects killed worms (the
// service layer's retry path re-sends instead).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "evsim/scheduler.hpp"
#include "fault/fault_state.hpp"
#include "topology/topology.hpp"
#include "wormhole/channel_pool.hpp"
#include "wormhole/worm.hpp"

namespace mcnet::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace mcnet::obs

namespace mcnet::worm {

struct WormholeParams {
  /// Seconds for one flit to cross one channel.  The paper's setting:
  /// 1-byte flits over 20 Mbyte/s channels = 50 ns.
  double flit_time = 50e-9;
  /// Message length L in flits (128-byte messages, 1-byte flits).
  std::uint32_t message_flits = 128;
  /// Physical copies of every directed channel (2 = double-channel network).
  std::uint8_t channel_copies = 1;
  /// Channel arbitration policy (Section 2.3.3).
  Arbitration arbitration = Arbitration::kFcfs;
  /// Virtual cut-through mode (Section 2.2.2): a blocked message is
  /// absorbed into the blocking node's buffer -- its held channels drain
  /// and release while a continuation worm keeps the FCFS wait -- instead
  /// of stalling in the network like a wormhole worm.  Path worms only
  /// (node buffers are unbounded, as in the Kermani-Kleinrock model).
  bool virtual_cut_through = false;
};

/// Observer callbacks (all optional).
struct NetworkHooks {
  /// A multicast entered the network (fires before any of its worms move).
  std::function<void(std::uint64_t message_id, double t)> on_inject;
  /// A destination received the complete message.
  std::function<void(std::uint64_t message_id, NodeId destination, double latency_s)>
      on_delivery;
  /// Every worm of a message finished (all deliveries + tail drained).
  /// Fires for killed messages too, once their last worm is gone; pair it
  /// with on_drop to tell full deliveries from degraded ones.
  std::function<void(std::uint64_t message_id, double latency_s)> on_message_done;
  /// A destination will never receive this message: the worm carrying it
  /// was killed by a fault or an abort_message() call.
  std::function<void(std::uint64_t message_id, NodeId destination, double t)> on_drop;
  /// Channel-level trace (for audits/visualisation): a worm acquired /
  /// released physical copy `copy` of channel `c` at the current time.
  std::function<void(ChannelId c, std::uint8_t copy, std::uint32_t worm_id, double t)>
      on_channel_grant;
  std::function<void(ChannelId c, std::uint8_t copy, std::uint32_t worm_id, double t)>
      on_channel_release;
};

class Network {
 public:
  /// `faults` is the failure state to simulate against; pass the instance
  /// shared with a fault::FaultAwareRouter so routing and the simulator
  /// agree on what is dead.  nullptr creates a private all-healthy state.
  Network(const topo::Topology& topology, const WormholeParams& params,
          evsim::Scheduler& sched, std::shared_ptr<fault::FaultState> faults = nullptr);

  /// Inject a multicast as a set of worms created at the current simulated
  /// time; returns the message id.  Worms routed over already-failed
  /// channels are killed immediately (their destinations drop).
  ///
  /// Every spec is checked before any state changes; a malformed one
  /// throws std::invalid_argument naming the spec index and the field.
  /// Each spec needs non-empty `links` whose depths start at 1 and repeat
  /// or add one from link to link, channels below num_channels(), copies
  /// that are kAnyCopy or below channel_copies, and `deliveries` sorted by
  /// depth, each depth in [1, max depth] and each destination below
  /// num_nodes().  An empty spec list is a legal no-worm message.
  std::uint64_t inject(std::vector<WormSpec> specs);

  void set_hooks(NetworkHooks hooks) { hooks_ = std::move(hooks); }

  /// Register this network's instruments on `registry` (nullptr detaches):
  /// counters network.injections / .deliveries / .drops / .worms_killed,
  /// histograms network.delivery_latency_s / .grant_wait_s /
  /// .channel_hold_s (all in simulated seconds) and gauge
  /// network.channel_busy_time_s.  When detached (the default) the hot
  /// paths pay one null check.  Multiple networks may share a registry;
  /// their counts aggregate.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Fail a directed channel at the current simulated time: worms holding
  /// or waiting on any copy of it are killed.  Idempotent.
  void fail_channel(ChannelId c);
  /// Recover a failed channel (new acquisitions succeed again).
  void recover_channel(ChannelId c);
  /// Fail a node: every incident channel becomes unusable and the worms
  /// holding or waiting on them are killed.
  void fail_node(NodeId n);
  void recover_node(NodeId n);

  /// Kill every still-active worm of `message` (e.g. on a service-level
  /// timeout).  Undelivered destinations drop; on_message_done fires once
  /// the last worm is gone.  No-op for completed or unknown messages.
  void abort_message(std::uint64_t message_id);

  [[nodiscard]] fault::FaultState& faults() { return *faults_; }
  [[nodiscard]] const fault::FaultState& faults() const { return *faults_; }
  [[nodiscard]] const std::shared_ptr<fault::FaultState>& fault_state() const {
    return faults_;
  }
  /// Worms killed by faults or aborts.
  [[nodiscard]] std::uint64_t worms_killed() const { return worms_killed_; }
  /// Destination deliveries abandoned by killed worms.
  [[nodiscard]] std::uint64_t deliveries_dropped() const { return deliveries_dropped_; }

  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }
  [[nodiscard]] const WormholeParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t messages_injected() const { return next_message_; }
  [[nodiscard]] std::uint64_t messages_completed() const { return messages_completed_; }
  [[nodiscard]] std::uint32_t active_worms() const { return active_worms_; }
  [[nodiscard]] bool idle() const { return active_worms_ == 0; }
  [[nodiscard]] const ChannelPool& pool() const { return pool_; }

  /// Total channel-hold time accumulated over all physical channels (s).
  [[nodiscard]] double channel_busy_time() const { return busy_time_; }
  /// Total time finished worms spent blocked waiting for channels -- the
  /// "blocking time" component of communication latency (Section 2.2).
  [[nodiscard]] double total_blocked_time() const { return blocked_time_total_; }
  /// Mean utilisation of the physical channels over [0, now].
  [[nodiscard]] double utilization() const;

  /// Worm ids forming a deadlock cycle in the wait-for graph (worm ->
  /// holders of the channels it waits on); empty when deadlock-free.
  [[nodiscard]] std::vector<std::uint32_t> find_deadlock() const;

  /// Human-readable description of a blocked worm (for the deadlock demo).
  [[nodiscard]] std::string describe_worm(std::uint32_t worm_id) const;

 private:
  struct Worm {
    // The fields every advance / drain_step reads come first.
    std::uint32_t progress = 0;
    std::uint32_t max_depth = 0;
    std::uint32_t frontier_begin = 0;
    std::uint32_t frontier_end = 0;
    std::uint32_t granted = 0;
    std::uint32_t next_delivery = 0;
    std::uint32_t next_release = 0;  // first link not yet released
    /// Advance phase: the progress at which the next release (link depth
    /// + L) or delivery (depth + L - 1) falls due; see set_due_progress.
    std::uint32_t due_progress = 0;
    /// The worm's single outstanding kernel event (an advance or a
    /// drain_step); null while blocked.  kill_worm cancels it outright --
    /// no stale closure ever fires for a retired incarnation.
    evsim::EventId pending;
    // Drain phase: absolute milestone times, each derived once from the
    // cursors (see drain); +inf once that kind of milestone is used up.
    double drain_t0 = 0.0;
    double t_delivery = 0.0;
    double t_release = 0.0;
    std::vector<WormLink> links;
    std::vector<std::pair<std::uint32_t, NodeId>> deliveries;
    std::vector<std::uint32_t> depth_start;  // index of first link at each depth
    std::vector<std::uint8_t> copy_used;     // granted copy per link
    std::uint64_t message = 0;
    double t_created = 0.0;
    double block_started = -1.0;     // time the current blocked wait began
    double blocked_time = 0.0;       // accumulated blocking (Sec. 2.2's term)
    bool active = false;

    [[nodiscard]] bool blocked() const {
      return active && frontier_end > frontier_begin && granted < frontier_end - frontier_begin;
    }
  };

  struct Message {
    double t_created = 0.0;
    std::uint32_t worms_left = 0;
  };

  [[nodiscard]] std::size_t phys_index(ChannelId c, std::uint8_t copy) const {
    return static_cast<std::size_t>(c) * params_.channel_copies + copy;
  }
  void note_grant(ChannelId c, std::uint8_t copy);
  void note_release(ChannelId c, std::uint8_t copy);

  void validate_specs(const std::vector<WormSpec>& specs) const;
  /// Reset a recycled slot to a fresh Worm, keeping the capacity of its
  /// copy_used and depth_start buffers.
  static void reset_slot(Worm& w);
  /// Size copy_used and build depth_start for the worm's links.
  static void index_links(Worm& w);
  /// Recompute Worm::due_progress from the release and delivery cursors,
  /// with the same unsigned expressions advance's loops test.
  void set_due_progress(Worm& w) const;
  /// The drain milestone of the next delivery / release, or kNever:
  /// drain_t0 + (depth + L - 1 - p) and drain_t0 + (depth + L - p) flit
  /// times, computed with the exact expressions the per-event code used,
  /// so dispatch timestamps stay bit-identical.
  [[nodiscard]] double delivery_due(const Worm& w) const;
  [[nodiscard]] double release_due(const Worm& w) const;
  void begin_frontier(std::uint32_t worm_id);
  void vct_absorb(std::uint32_t worm_id);
  std::uint32_t allocate_worm();
  /// A release cascade handed `copy` of the worm's link to it: record the
  /// grant, fire the trace hook, and arm the advance once the whole
  /// frontier is held.
  void on_grant(std::uint32_t worm_id, std::uint32_t link_index, std::uint8_t copy);
  /// Arm the worm's single pending event: one flit time to the next hop.
  void arm_advance(std::uint32_t worm_id);
  void advance(std::uint32_t worm_id);
  /// Enter the completion drain: from here the worm is driven by one
  /// self-rearming drain_step event that folds every same-time delivery
  /// and tail release into a single kernel dispatch (the old code armed
  /// one event per delivery, per link and for the finish).
  void drain(std::uint32_t worm_id);
  /// Schedule drain_step at the earliest not-yet-fired drain milestone:
  /// the cached next delivery and release times, or the finish at
  /// drain_t0 + L flit times.
  void arm_drain(std::uint32_t worm_id);
  void drain_step(std::uint32_t worm_id);
  void release_link(Worm& w, std::uint32_t link_index);
  /// Retire a worm whose generation is already bumped and whose channels
  /// are released: free its slot, report its `dropped` destinations, and
  /// fire on_message_done when it was its message's last worm.  Hooks fire
  /// only after the slot is free.
  void retire_worm(std::uint32_t worm_id, const std::vector<NodeId>& dropped);
  /// Kill an active worm: cancel its pending kernel event, cancel its
  /// waits (its ungranted frontier links, the only channels a worm queues
  /// on), release its holds, drop its undelivered destinations, retire
  /// the slot.
  void kill_worm(std::uint32_t worm_id);
  /// Kill every worm holding or waiting on channel `c`.
  void kill_channel_users(ChannelId c);

  /// Registry instruments bound once in set_metrics(); all-null when
  /// metrics are disabled (`active()` is the single hot-path check).
  struct Metrics {
    obs::Counter* injections = nullptr;
    obs::Counter* deliveries = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* worms_killed = nullptr;
    obs::Histogram* delivery_latency_s = nullptr;
    obs::Histogram* grant_wait_s = nullptr;
    obs::Histogram* channel_hold_s = nullptr;
    obs::Gauge* channel_busy_time_s = nullptr;

    [[nodiscard]] bool active() const { return injections != nullptr; }
  };

  const topo::Topology* topology_;
  WormholeParams params_;
  evsim::Scheduler* sched_;
  ChannelPool pool_;
  std::shared_ptr<fault::FaultState> faults_;
  NetworkHooks hooks_;
  Metrics metrics_;

  std::vector<Worm> worms_;
  /// Incarnation counter per worm slot.  Events are cancelled for real via
  /// Worm::pending, but the counter still guards (a) victim snapshots in
  /// kill_channel_users / abort_message and (b) hook callouts inside
  /// advance / drain_step: a hook may kill this very worm and reuse its
  /// slot, so the loops re-check the generation after every callout.
  std::vector<std::uint64_t> worm_gen_;
  std::vector<std::uint32_t> free_worm_slots_;
  std::vector<Message> messages_;  // indexed by message id
  std::uint64_t next_message_ = 0;
  std::uint64_t messages_completed_ = 0;
  std::uint64_t worms_killed_ = 0;
  std::uint64_t deliveries_dropped_ = 0;
  std::uint32_t active_worms_ = 0;
  double busy_time_ = 0.0;
  double blocked_time_total_ = 0.0;
  std::vector<double> acquired_at_;  // per physical channel copy
};

}  // namespace mcnet::worm
