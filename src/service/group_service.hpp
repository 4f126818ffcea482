// Group multicast with membership views, sender windows, and heartbeat
// failure detection (the SST/Derecho-style group abstraction of ROADMAP
// item 2), layered on MulticastService's reliable multicast.
//
// Model
//  * Membership is versioned: every group carries a MembershipView with a
//    monotonically increasing view id, installed by a deterministic
//    view-change protocol driven by the event simulator.  Views change on
//    join(), leave(), and detector-driven eviction; each install stamps
//    the fault::FaultState epoch, so detector evictions and injected
//    faults line up on one epoch timeline.
//  * Every live member multicasts a heartbeat to its group peers each
//    heartbeat_period_s -- real traffic through the wormhole network, so
//    congestion and link faults genuinely delay or kill heartbeats.  Each
//    member tracks per-peer last-heard times and a smoothed interarrival;
//    a periodic detector sweep suspects peer p at observer m when m has
//    not heard p for phi_threshold times the smoothed interarrival (with
//    suspicion_min_timeout_s as the floor).  A peer suspected by a strict
//    majority of its co-members is evicted and a new view installs.  An
//    eviction of a node that had NOT failed (per FaultState ground truth)
//    counts as a false positive.
//  * Sends carry per-sender sequence numbers through a bounded ring-buffer
//    window of window_size slots: seq s may launch only while
//    s < lowest_unstable + window_size; later sends queue (a window
//    stall).  A message is *stable* once every destination it owes has a
//    terminal outcome; stability of the oldest in-flight message advances
//    the window and drains the queue.  View installs drop evicted
//    destinations from in-flight messages, so windows never deadlock on a
//    dead receiver.
//  * Receivers deliver to the application in per-sender sequence order
//    (delivered-but-early messages buffer; terminal failures plug the
//    hole so ordering never wedges behind a dropped message).  A message
//    counts as "delivered in view" at a destination only while that
//    destination is still a member (same incarnation) of the group --
//    deliveries racing an eviction are filtered, never surfaced.
//
// The control plane (view state, windows, detector sweeps) is centralised
// in this object -- the simulation-side equivalent of SST's shared state
// table -- which is what makes "all live members observe identical view
// ids per epoch" hold by construction; the data plane (application sends,
// heartbeats, view-install announcements) is real simulated traffic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/flat_map.hpp"
#include "service/multicast_service.hpp"

namespace mcnet::obs {
class Gauge;
class Histogram;
}

namespace mcnet::svc {

using GroupId = std::uint32_t;
using ViewId = std::uint64_t;
using SeqNum = std::uint64_t;

/// Tuning knobs for membership, windows, and the failure detector.  All
/// times are simulated seconds.
struct GroupConfig {
  /// Ring-buffer send-window slots per sender (max unstable messages).
  std::uint32_t window_size = 8;
  /// Heartbeat multicast period per live member.
  double heartbeat_period_s = 50e-6;
  /// Detector sweep cadence (suspicion + eviction decisions).
  double sweep_period_s = 50e-6;
  /// Minimum silence before any suspicion (floor under the phi rule).
  /// Eight heartbeat periods by default: wormhole congestion routinely
  /// delays a heartbeat by several periods, and a false eviction is far
  /// more disruptive than late detection.
  double suspicion_min_timeout_s = 400e-6;
  /// Suspect after this many multiples of the smoothed heartbeat
  /// interarrival without news (phi/timeout-style accrual).
  double phi_threshold = 6.0;
  /// Retry policy for application sends and view-install messages.
  RetryPolicy retry{};

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// One installed membership view.
struct MembershipView {
  ViewId id = 0;
  std::vector<topo::NodeId> members;  // sorted ascending
  double installed_at_s = 0.0;
  /// fault::FaultState epoch at install time -- the shared timeline
  /// between injected faults and detector-driven evictions.
  std::uint64_t fault_epoch = 0;

  [[nodiscard]] bool contains(topo::NodeId n) const;
  /// Lowest-id member; sends the view-install announcement.
  [[nodiscard]] topo::NodeId coordinator() const { return members.front(); }
};

/// Terminal outcome of one group send at one destination.
enum class GroupOutcome : std::uint8_t {
  kDeliveredInView,  // delivered while the receiver was still a member
  kEvicted,          // receiver evicted/left before the delivery counted
  kDropped,          // retry budget exhausted
  kUnreachable,      // no usable path at routing time (partition)
};

/// Final report for one group send (fires exactly once per send).
struct GroupSendReport {
  GroupId group = 0;
  topo::NodeId sender = topo::kInvalidNode;
  SeqNum seq = 0;
  /// View the message was sent in (destinations = its members minus the
  /// sender at launch time).
  ViewId view = 0;

  struct Destination {
    topo::NodeId node = topo::kInvalidNode;
    GroupOutcome outcome = GroupOutcome::kDropped;
    double latency_s = -1.0;  // -1 unless delivered in view
  };
  std::vector<Destination> destinations;  // sorted by node id

  /// True when every destination still in the group at stability time was
  /// delivered in view (the virtual-synchrony success case).
  bool stable_in_view = false;
  double sent_at_s = 0.0;
  double stable_at_s = 0.0;

  [[nodiscard]] std::size_t count(GroupOutcome o) const {
    std::size_t n = 0;
    for (const Destination& d : destinations) n += d.outcome == o ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t delivered_in_view() const {
    return count(GroupOutcome::kDeliveredInView);
  }
};

class GroupService {
 public:
  /// Fired once per send with the final per-destination outcome.
  using ReportFn = std::function<void(const GroupSendReport&)>;
  /// In-order application delivery: fired at `receiver` for (sender, seq)
  /// only after every earlier seq from that sender was delivered or
  /// terminally failed, and only while `receiver` is a live member.
  using AppDeliveryFn = std::function<void(GroupId group, topo::NodeId receiver,
                                           topo::NodeId sender, SeqNum seq, ViewId view)>;
  /// Fired on every view install (joins, leaves, evictions).
  using ViewFn = std::function<void(GroupId group, const MembershipView& view)>;

  /// The service must be fault-router wired (reliable_capable()); throws
  /// std::logic_error otherwise, std::invalid_argument on a bad config.
  explicit GroupService(MulticastService& service, GroupConfig config = {});

  /// Create a group over `members` (>= 1 distinct nodes) and install view
  /// 1; heartbeats and detector sweeps start immediately.
  GroupId create_group(std::vector<topo::NodeId> members);

  /// Install a new view with `node` added / removed.  Joining an existing
  /// member or leaving a non-member throws std::invalid_argument.
  void join(GroupId group, topo::NodeId node);
  void leave(GroupId group, topo::NodeId node);

  /// Multicast from `sender` (a current member; throws otherwise) to the
  /// group.  Returns the per-sender sequence number.  When the sender's
  /// window is full the send queues (a window stall) and launches as the
  /// window advances.
  SeqNum send(GroupId group, topo::NodeId sender, ReportFn on_report = {});

  /// Subset multicast (the collective-phase hook): like send(), but
  /// targeted at an explicit destination set, which must be current
  /// members distinct from the sender (throws std::invalid_argument
  /// otherwise; duplicates are deduped).  The send consumes a normal
  /// window slot and per-sender sequence number; members outside the
  /// destination set observe the sequence as a hole in the sender's
  /// in-order stream (plugged at launch, so ordering never wedges on a
  /// message they were never owed).  Destinations evicted while the send
  /// is queued are dropped at launch time.
  SeqNum send_to(GroupId group, topo::NodeId sender, std::vector<topo::NodeId> dests,
                 ReportFn on_report = {});

  void on_app_delivery(AppDeliveryFn fn) { app_delivery_ = std::move(fn); }
  void on_view_change(ViewFn fn) { view_change_ = std::move(fn); }

  /// Phase hooks (multi-subscriber, for layers like coll::Collective that
  /// ride on the group machinery without stealing the application's
  /// on_app_delivery/on_view_change slots).  Handles are stable; remove
  /// with the matching remove_*.  Delivery hooks fire after app_delivery_
  /// for every in-order delivery.  View-settled hooks fire after a view
  /// install has fully settled: evicted destinations of in-flight
  /// messages hold terminal outcomes, their reports have fired, and
  /// sender windows have advanced -- the safe point to decide a
  /// view-change restart.
  std::uint64_t add_delivery_hook(AppDeliveryFn fn);
  void remove_delivery_hook(std::uint64_t handle);
  std::uint64_t add_view_settled_hook(ViewFn fn);
  void remove_view_settled_hook(std::uint64_t handle);

  /// Stop heartbeat and detector loops (so a bounded simulation drains);
  /// in-flight sends still run to their terminal reports.
  void stop() { stopped_ = true; }

  [[nodiscard]] const MembershipView& view(GroupId group) const;
  /// Every view ever installed, in id order (view 1 first).
  [[nodiscard]] const std::vector<MembershipView>& view_history(GroupId group) const;
  [[nodiscard]] std::size_t num_groups() const { return groups_.size(); }

  /// Window introspection (0 for unknown senders).
  [[nodiscard]] std::size_t in_flight(GroupId group, topo::NodeId sender) const;
  [[nodiscard]] std::size_t queued(GroupId group, topo::NodeId sender) const;
  /// Senders (across all groups) currently stalled with a non-empty queue.
  [[nodiscard]] std::uint64_t stalled_senders() const { return stalled_senders_; }

  /// Monotonic counters mirrored into the registry (see set_metrics);
  /// queryable without one for tests.
  struct Stats {
    std::uint64_t view_installs = 0;
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    std::uint64_t suspicions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t false_positive_evictions = 0;
    std::uint64_t sends = 0;
    std::uint64_t window_stalls = 0;  // sends that had to queue
    std::uint64_t heartbeats = 0;
    std::uint64_t view_messages = 0;
    std::uint64_t delivered_in_view = 0;
    std::uint64_t delivered_filtered = 0;  // deliveries discarded (evicted/stale)
    std::uint64_t dropped = 0;
    std::uint64_t unreachable = 0;
    std::uint64_t app_deliveries = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Register group.* instruments on `registry` (nullptr detaches):
  /// counters mirroring Stats, gauge group.window_stalled, histograms
  /// group.stability_latency_s and group.delivery_latency_s.
  void set_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] MulticastService& service() { return *service_; }
  [[nodiscard]] const GroupConfig& config() const { return config_; }

 private:
  struct HeartbeatTrack {
    double last_heard = 0.0;
    double smoothed_interval = 0.0;  // EWMA of heartbeat interarrival
    bool suspected = false;          // current suspicion (for edge counting)
  };

  /// One in-flight (unstable) send occupying a window slot.
  struct PendingMsg {
    SeqNum seq = 0;
    ViewId view = 0;
    double sent_at = 0.0;
    ReportFn on_report;
    /// Destination -> (member incarnation at launch, outcome).  An owed
    /// destination is one whose outcome is still pending.  The set is
    /// fixed at launch, so references into it stay valid across callbacks
    /// (FlatMap only invalidates on insert/erase).
    struct Dest {
      std::uint64_t incarnation = 0;
      bool terminal = false;
      GroupOutcome outcome = GroupOutcome::kDropped;
      double latency_s = -1.0;
    };
    util::FlatMap<topo::NodeId, Dest> dests;
    std::size_t open = 0;  // dests not yet terminal
  };

  struct QueuedSend {
    SeqNum seq = 0;
    ReportFn on_report;
    /// Subset sends queue their target set; empty + subset=false means
    /// "whole view at launch time".
    std::vector<topo::NodeId> dests;
    bool subset = false;
  };

  struct SenderState {
    SeqNum next_seq = 0;
    SeqNum lowest_unstable = 0;
    /// Ring buffer of window_size slots, indexed seq % window_size; a
    /// non-null slot is an unstable message still holding its slot.
    std::vector<std::shared_ptr<PendingMsg>> ring;
    std::deque<QueuedSend> queue;  // sends waiting for window space
    bool counted_stalled = false;  // contributes to stalled_senders_
  };

  /// Per-sender in-order delivery state at one receiver.
  struct ReceiverStream {
    SeqNum next = 0;                            // next seq to surface
    util::FlatMap<SeqNum, bool> pending;        // seq -> deliverable (false = hole)
  };

  /// Everything a group keeps per member slot.
  struct Member {
    topo::NodeId node = topo::kInvalidNode;
    /// Join incarnation (bumped on every join), so a delivery racing an
    /// evict+rejoin cannot count for the old incarnation.
    std::uint64_t incarnation = 0;
    SenderState sender;
  };

  /// Everything a group keeps per (receiver slot, sender slot) pair.  The
  /// receiver is also the detector's observer and the sender its subject.
  struct Pair {
    std::optional<ReceiverStream> stream;  // empty until first used
    /// Meaningful only while both nodes are members: install_view starts a
    /// fresh track for every pair that enters the view.
    HeartbeatTrack track;
  };

  /// Per-group state, all of it on member slots.  A node gets a dense slot
  /// the first time it becomes a member, and slots are never reused.  Both
  /// tables only append, and a std::deque keeps every element in place
  /// across appends, so a reference into either survives any callback,
  /// including one that join()s a new member.
  struct Group {
    GroupId id = 0;
    MembershipView view;
    std::vector<MembershipView> history;
    /// Member slot per topology node, kNoSlot until the node first becomes
    /// a member.
    std::vector<std::uint32_t> slot_of;
    /// Slot -> member state.
    std::deque<Member> slots;
    /// (receiver slot, sender slot) -> pair state, laid out by pair_index()
    /// in the .cpp so a new slot appends its row and column; a group holds
    /// (members ever)^2 entries.
    std::deque<Pair> pairs;

    static constexpr std::uint32_t kNoSlot = 0xffffffffU;

    /// Give `node` the next slot unless it already holds one: appends its
    /// member entry (a sender ring of `window_size` slots) and its pairs.
    void assign_slot(topo::NodeId node, std::uint32_t window_size);
    /// The entries of nodes that hold slots.
    Member& member(topo::NodeId node) { return slots[slot_of[node]]; }
    Pair& pair(topo::NodeId receiver, topo::NodeId sender);
    /// The member entry of `node`, or nullptr if it never held a slot.
    [[nodiscard]] const Member* find(topo::NodeId node) const;
    /// True while `node` is a member of the current view in `incarnation`.
    [[nodiscard]] bool is_member(topo::NodeId node, std::uint64_t incarnation) const;
  };

  Group& group_at(GroupId group);
  const Group& group_at(GroupId group) const;

  /// Install `members` as the next view of `g` (sorted, deduped by the
  /// caller); announces via a reliable multicast from the coordinator and
  /// re-evaluates in-flight messages against the new membership.
  void install_view(Group& g, std::vector<topo::NodeId> members);

  /// Reset the in-order streams around `joiner` after it (re)joined.
  /// Re-entrant: the same node joining in two consecutive view installs
  /// (evict + rejoin before it heard any sequence) yields the same state
  /// as a single join, and a continuous member's progress through the
  /// joiner's still-in-flight sends is never discarded (the pre-fix code
  /// clobbered peers' streams to the joiner's next_seq, silently dropping
  /// messages launched while both were members).
  void reset_joiner_streams(Group& g, topo::NodeId joiner);

  void start_heartbeat(GroupId group, topo::NodeId node, std::uint64_t incarnation);
  void heartbeat_tick(GroupId group, topo::NodeId node, std::uint64_t incarnation);
  void schedule_sweep(GroupId group);
  void sweep_tick(GroupId group);
  void detector_sweep(Group& g);
  void record_heartbeat(Group& g, topo::NodeId observer, topo::NodeId subject, double at);

  SeqNum enqueue_or_launch(Group& g, topo::NodeId sender, ReportFn on_report,
                           std::vector<topo::NodeId> dests, bool subset);
  void launch(Group& g, topo::NodeId sender, SeqNum seq, ReportFn on_report,
              const std::vector<topo::NodeId>& subset_dests, bool subset);
  void classify_delivery(GroupId group, SeqNum seq, topo::NodeId sender,
                         topo::NodeId dest, double latency);
  void reliable_report(GroupId group, topo::NodeId sender, SeqNum seq,
                       const DeliveryReport& report);
  void finish_destination(Group& g, topo::NodeId sender, PendingMsg& msg,
                          topo::NodeId dest, GroupOutcome outcome, double latency);
  /// Advance the window past stable slots; launch queued sends; fire the
  /// report of every message that just became stable.
  void advance_window(Group& g, topo::NodeId sender);
  void fire_report(Group& g, topo::NodeId sender, const PendingMsg& msg);
  /// Feed (sender, seq, deliverable) into the receiver's in-order stream.
  void stream_update(Group& g, topo::NodeId receiver, topo::NodeId sender, SeqNum seq,
                     bool deliverable);
  void notify_delivery(GroupId group, topo::NodeId receiver, topo::NodeId sender,
                       SeqNum seq, ViewId view);
  /// Call, in handle order, every hook of `hooks` that was registered
  /// before this call and is still registered when its turn comes (hooks
  /// may add and remove hooks while it runs).
  template <typename Fn, typename... Args>
  void fire_hooks(util::FlatMap<std::uint64_t, Fn>& hooks, const Args&... args);
  void update_stalled(SenderState& st);

  struct Metrics {
    obs::Counter* view_installs = nullptr;
    obs::Counter* joins = nullptr;
    obs::Counter* leaves = nullptr;
    obs::Counter* suspicions = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* false_positives = nullptr;
    obs::Counter* sends = nullptr;
    obs::Counter* window_stalls = nullptr;
    obs::Counter* heartbeats = nullptr;
    obs::Counter* view_messages = nullptr;
    obs::Counter* delivered_in_view = nullptr;
    obs::Counter* delivered_filtered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* unreachable = nullptr;
    obs::Counter* app_deliveries = nullptr;
    obs::Gauge* window_stalled = nullptr;
    obs::Histogram* stability_latency_s = nullptr;
    obs::Histogram* delivery_latency_s = nullptr;

    [[nodiscard]] bool active() const { return view_installs != nullptr; }
  };

  MulticastService* service_;
  evsim::Scheduler* sched_;
  GroupConfig config_;
  /// Group ids are dense (1, 2, ...) and never recycled, so per-group
  /// state lives in a flat vector indexed id - 1; unique_ptr keeps Group
  /// addresses stable across create_group while the vector grows.
  std::vector<std::unique_ptr<Group>> groups_;
  GroupId next_group_ = 1;
  bool stopped_ = false;
  std::uint64_t stalled_senders_ = 0;
  AppDeliveryFn app_delivery_;
  ViewFn view_change_;
  util::FlatMap<std::uint64_t, AppDeliveryFn> delivery_hooks_;
  util::FlatMap<std::uint64_t, ViewFn> view_settled_hooks_;
  std::uint64_t next_hook_ = 1;
  Stats stats_;
  Metrics metrics_;
};

}  // namespace mcnet::svc
