#include "service/group_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "evsim/random.hpp"
#include "fault/fault_state.hpp"
#include "obs/metrics.hpp"

namespace mcnet::svc {
namespace {

// Seed stream for heartbeat phase staggering: members of a group start
// their heartbeat timers at distinct deterministic offsets inside one
// period, so heartbeats do not all collide on the same injection instant.
constexpr std::uint64_t kHeartbeatPhaseSeed = 0x67727068ULL;  // "grph"

// EWMA weight for heartbeat interarrival smoothing.
constexpr double kInterarrivalAlpha = 0.25;

// A group's pair table covers (receiver slot, sender slot) pairs, laid out
// shell by shell: the pairs whose larger slot is k occupy [k*k, (k+1)*(k+1)).
// Slots below k thus fill the first k*k entries, and assigning slot k
// appends its 2k + 1 pairs without moving any other pair's index.
std::size_t pair_index(std::uint32_t receiver, std::uint32_t sender) {
  const std::size_t k = std::max(receiver, sender);
  return k * k + (receiver == k ? sender : k + 1 + receiver);
}

}  // namespace

void GroupConfig::validate() const {
  if (window_size == 0) {
    throw std::invalid_argument("GroupConfig.window_size must be >= 1 (got 0)");
  }
  if (!(heartbeat_period_s > 0.0) || !std::isfinite(heartbeat_period_s)) {
    throw std::invalid_argument(
        "GroupConfig.heartbeat_period_s must be positive and finite (got " +
        std::to_string(heartbeat_period_s) + ")");
  }
  if (!(sweep_period_s > 0.0) || !std::isfinite(sweep_period_s)) {
    throw std::invalid_argument(
        "GroupConfig.sweep_period_s must be positive and finite (got " +
        std::to_string(sweep_period_s) + ")");
  }
  if (!(suspicion_min_timeout_s >= heartbeat_period_s) ||
      !std::isfinite(suspicion_min_timeout_s)) {
    throw std::invalid_argument(
        "GroupConfig.suspicion_min_timeout_s must be finite and >= heartbeat_period_s "
        "(got " +
        std::to_string(suspicion_min_timeout_s) + " vs period " +
        std::to_string(heartbeat_period_s) + ")");
  }
  if (!(phi_threshold >= 1.0) || !std::isfinite(phi_threshold)) {
    throw std::invalid_argument("GroupConfig.phi_threshold must be finite and >= 1 (got " +
                                std::to_string(phi_threshold) + ")");
  }
  retry.validate();
}

bool MembershipView::contains(topo::NodeId n) const {
  return std::binary_search(members.begin(), members.end(), n);
}

void GroupService::Group::assign_slot(topo::NodeId node, std::uint32_t window_size) {
  if (slot_of[node] != kNoSlot) return;
  slot_of[node] = static_cast<std::uint32_t>(slots.size());
  slots.emplace_back().node = node;
  slots.back().sender.ring.resize(window_size);
  pairs.resize(slots.size() * slots.size());
}

GroupService::Pair& GroupService::Group::pair(topo::NodeId receiver, topo::NodeId sender) {
  return pairs[pair_index(slot_of[receiver], slot_of[sender])];
}

const GroupService::Member* GroupService::Group::find(topo::NodeId node) const {
  return node < slot_of.size() && slot_of[node] != kNoSlot ? &slots[slot_of[node]] : nullptr;
}

bool GroupService::Group::is_member(topo::NodeId node, std::uint64_t incarnation) const {
  return view.contains(node) && slots[slot_of[node]].incarnation == incarnation;
}

GroupService::GroupService(MulticastService& service, GroupConfig config)
    : service_(&service), sched_(&service.scheduler()), config_(config) {
  if (!service.reliable_capable()) {
    throw std::logic_error(
        "GroupService requires a fault-aware MulticastService "
        "(construct it from a FaultAwareRouter)");
  }
  config_.validate();
}

GroupService::Group& GroupService::group_at(GroupId group) {
  if (group == 0 || group > groups_.size()) {
    throw std::invalid_argument("GroupService: unknown group id " + std::to_string(group));
  }
  return *groups_[group - 1];
}

const GroupService::Group& GroupService::group_at(GroupId group) const {
  if (group == 0 || group > groups_.size()) {
    throw std::invalid_argument("GroupService: unknown group id " + std::to_string(group));
  }
  return *groups_[group - 1];
}

GroupId GroupService::create_group(std::vector<topo::NodeId> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  if (members.empty()) {
    throw std::invalid_argument("GroupService::create_group: empty member set");
  }
  const std::size_t num_nodes = service_->topology().num_nodes();
  for (const topo::NodeId m : members) {
    if (m >= num_nodes) {
      throw std::invalid_argument("GroupService::create_group: node " +
                                  std::to_string(m) + " outside topology (num_nodes=" +
                                  std::to_string(num_nodes) + ")");
    }
  }

  const GroupId id = next_group_++;
  groups_.push_back(std::make_unique<Group>());
  Group& g = *groups_.back();
  g.id = id;
  g.slot_of.assign(num_nodes, Group::kNoSlot);
  for (const topo::NodeId m : members) {
    g.assign_slot(m, config_.window_size);
    g.member(m).incarnation = 1;
  }
  install_view(g, std::move(members));
  for (const topo::NodeId m : g.view.members) start_heartbeat(id, m, 1);
  schedule_sweep(id);
  return id;
}

void GroupService::join(GroupId group, topo::NodeId node) {
  Group& g = group_at(group);
  if (node >= service_->topology().num_nodes()) {
    throw std::invalid_argument("GroupService::join: node " + std::to_string(node) +
                                " outside topology");
  }
  if (g.view.contains(node)) {
    throw std::invalid_argument("GroupService::join: node " + std::to_string(node) +
                                " is already a member of group " + std::to_string(group));
  }
  stats_.joins++;
  if (metrics_.active()) metrics_.joins->inc();

  g.assign_slot(node, config_.window_size);
  const std::uint64_t inc = ++g.member(node).incarnation;
  std::vector<topo::NodeId> members = g.view.members;
  members.push_back(node);

  reset_joiner_streams(g, node);

  install_view(g, std::move(members));
  start_heartbeat(group, node, inc);
}

void GroupService::reset_joiner_streams(Group& g, topo::NodeId joiner) {
  // Inbound floor at the joiner: it owes/expects nothing from before this
  // join, so each {joiner, m} stream floors at m's next_seq -- but only
  // ever forward.  A joiner appearing in two consecutive view installs
  // before hearing any sequence (evict + instant rejoin) must converge to
  // the same state as one join, not rewind past what the first reset
  // already established.
  const auto joiner_floor = [this, &g, joiner](topo::NodeId peer) -> SeqNum {
    // Outbound floor at peer m for a NEW {m, joiner} stream.  m was a
    // member continuously (its stream is only absent when the joiner
    // never reached it), so the joiner's unstable ring messages owed to m
    // are still coming: floor at the lowest such seq, or at the first
    // queued seq (queued sends launch against the post-join view, which
    // contains m).  Flooring at next_seq -- what the pre-fix code did for
    // every peer, existing stream or not -- silently discards all of
    // those when they arrive.
    const SenderState& st = g.member(joiner).sender;
    for (SeqNum q = st.lowest_unstable; q < st.next_seq; ++q) {
      const auto& slot = st.ring[q % config_.window_size];
      if (slot && slot->seq == q && slot->dests.contains(peer)) return q;
    }
    if (!st.queue.empty()) return st.queue.front().seq;
    return st.next_seq;
  };

  for (const topo::NodeId m : g.view.members) {
    if (m == joiner) continue;

    const SeqNum m_floor = g.member(m).sender.next_seq;
    std::optional<ReceiverStream>& in = g.pair(joiner, m).stream;
    if (!in) {
      in.emplace(ReceiverStream{m_floor, {}});
    } else {
      if (m_floor > in->next) in->next = m_floor;
      // Entries below the floor belong to the joiner's previous
      // incarnation; they can never surface and would only pin memory.
      const SeqNum floor = in->next;
      in->pending.retain([floor](const SeqNum& q, bool) { return q >= floor; });
    }

    // A continuous member's progress through the joiner's in-flight sends
    // is never reset -- only streams that do not exist yet are created.
    std::optional<ReceiverStream>& out = g.pair(m, joiner).stream;
    if (!out) out.emplace(ReceiverStream{joiner_floor(m), {}});
  }
}

void GroupService::leave(GroupId group, topo::NodeId node) {
  Group& g = group_at(group);
  if (!g.view.contains(node)) {
    throw std::invalid_argument("GroupService::leave: node " + std::to_string(node) +
                                " is not a member of group " + std::to_string(group));
  }
  stats_.leaves++;
  if (metrics_.active()) metrics_.leaves->inc();

  std::vector<topo::NodeId> members;
  members.reserve(g.view.members.size() - 1);
  for (const topo::NodeId m : g.view.members) {
    if (m != node) members.push_back(m);
  }
  install_view(g, std::move(members));
}

void GroupService::install_view(Group& g, std::vector<topo::NodeId> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  const double now = sched_->now();
  const auto& faults = *service_->network().fault_state();

  MembershipView v;
  v.id = g.view.id + 1;
  v.members = std::move(members);
  v.installed_at_s = now;
  v.fault_epoch = faults.epoch();

  // Detector bookkeeping follows membership: a pair that was in the
  // previous view keeps its track, and a pair entering the view starts
  // with a full grace period.
  for (const topo::NodeId observer : v.members) {
    const bool stayed = g.view.contains(observer);
    for (const topo::NodeId subject : v.members) {
      if (subject != observer && !(stayed && g.view.contains(subject))) {
        g.pair(observer, subject).track = HeartbeatTrack{now, 0.0, false};
      }
    }
  }

  g.view = v;
  g.history.push_back(v);
  stats_.view_installs++;
  if (metrics_.active()) metrics_.view_installs->inc();

  // Announce the view as real traffic from the first live member (the
  // coordinator when it is alive), so view changes contend for channels
  // like any other control message.
  topo::NodeId announcer = topo::kInvalidNode;
  for (const topo::NodeId m : v.members) {
    if (!faults.node_failed(m)) {
      announcer = m;
      break;
    }
  }
  if (announcer != topo::kInvalidNode && v.members.size() >= 2) {
    std::vector<topo::NodeId> peers;
    peers.reserve(v.members.size() - 1);
    for (const topo::NodeId m : v.members) {
      if (m != announcer) peers.push_back(m);
    }
    stats_.view_messages++;
    if (metrics_.active()) metrics_.view_messages->inc();
    service_->multicast_reliable({announcer, std::move(peers)},
                                 [](const DeliveryReport&) {}, config_.retry);
  }

  if (view_change_) view_change_(g.id, g.view);

  // Re-evaluate in-flight messages: destinations no longer in the view
  // (or re-joined under a new incarnation) stop being owed, so a window
  // blocked on a dead receiver drains now instead of deadlocking.  Senders
  // go in ascending node id, over every node that ever held a slot.
  // Snapshot each sender's unstable messages first: finish_destination
  // fires callbacks that can re-enter send() and retire or reuse ring slots.
  std::vector<topo::NodeId> sender_ids;
  sender_ids.reserve(g.slots.size());
  for (const Member& m : g.slots) sender_ids.push_back(m.node);
  std::sort(sender_ids.begin(), sender_ids.end());
  for (const topo::NodeId s : sender_ids) {
    std::vector<std::shared_ptr<PendingMsg>> inflight;
    const SenderState& st = g.member(s).sender;
    for (SeqNum q = st.lowest_unstable; q < st.next_seq; ++q) {
      const auto& slot = st.ring[q % config_.window_size];
      if (slot && slot->seq == q) inflight.push_back(slot);
    }
    for (const auto& msg : inflight) {
      for (auto& [dest, ds] : msg->dests) {
        if (!ds.terminal && !g.is_member(dest, ds.incarnation)) {
          finish_destination(g, s, *msg, dest, GroupOutcome::kEvicted, -1.0);
        }
      }
    }
    advance_window(g, s);
  }

  // The install has fully settled: evicted destinations hold terminal
  // outcomes, their reports fired, windows advanced.  Collective layers
  // restart from here.
  fire_hooks(view_settled_hooks_, g.id, g.view);
}

void GroupService::start_heartbeat(GroupId group, topo::NodeId node,
                                   std::uint64_t incarnation) {
  evsim::Rng rng(evsim::derive_seed(kHeartbeatPhaseSeed + group,
                                    (static_cast<std::uint64_t>(node) << 32) | incarnation));
  const double phase = rng.uniform(0.0, config_.heartbeat_period_s);
  sched_->schedule_in(phase, [this, group, node, incarnation] {
    heartbeat_tick(group, node, incarnation);
  });
}

void GroupService::heartbeat_tick(GroupId group, topo::NodeId node,
                                  std::uint64_t incarnation) {
  if (stopped_) return;
  if (group == 0 || group > groups_.size()) return;
  Group& g = *groups_[group - 1];
  // The timer dies with the membership incarnation; a rejoin starts a
  // fresh one.
  if (!g.is_member(node, incarnation)) return;

  const auto& faults = *service_->network().fault_state();
  // A failed node sends nothing (that silence is what the detector reads),
  // but the timer keeps ticking so a recovered member resumes.
  if (!faults.node_failed(node) && g.view.members.size() >= 2) {
    std::vector<topo::NodeId> peers;
    peers.reserve(g.view.members.size() - 1);
    for (const topo::NodeId m : g.view.members) {
      if (m != node) peers.push_back(m);
    }
    RetryPolicy hb;
    hb.max_attempts = 1;  // a lost heartbeat is information, not an error
    // A congestion-delayed heartbeat still proves liveness, so give the
    // attempt several periods -- but abort well before the suspicion
    // floor: fault-degraded routes may wedge the network (fault_router.hpp
    // gives no deadlock-freedom guarantee under failures), and the abort
    // is what releases the wedged channels so later heartbeats get
    // through before the silence threshold trips.
    hb.timeout_s = std::min(config_.suspicion_min_timeout_s,
                            2.0 * config_.heartbeat_period_s);
    hb.backoff_initial_s = config_.heartbeat_period_s;
    hb.backoff_factor = 1.0;
    stats_.heartbeats++;
    if (metrics_.active()) metrics_.heartbeats->inc();
    service_->multicast_reliable(
        {node, std::move(peers)}, [](const DeliveryReport&) {}, hb,
        [this, group, node](topo::NodeId dest, double /*latency_s*/) {
          if (group == 0 || group > groups_.size()) return;
          record_heartbeat(*groups_[group - 1], dest, node, sched_->now());
        });
  }

  sched_->schedule_in(config_.heartbeat_period_s, [this, group, node, incarnation] {
    heartbeat_tick(group, node, incarnation);
  });
}

void GroupService::record_heartbeat(Group& g, topo::NodeId observer, topo::NodeId subject,
                                    double at) {
  // A pair that has left the view updates a track nobody reads; the
  // install that brings the pair back starts it afresh.
  HeartbeatTrack& t = g.pair(observer, subject).track;
  const double interval = at - t.last_heard;
  if (interval > 0.0) {
    t.smoothed_interval = t.smoothed_interval == 0.0
                              ? interval
                              : (1.0 - kInterarrivalAlpha) * t.smoothed_interval +
                                    kInterarrivalAlpha * interval;
  }
  t.last_heard = at;
  t.suspected = false;  // hearing from the subject clears the suspicion
}

void GroupService::schedule_sweep(GroupId group) {
  sched_->schedule_in(config_.sweep_period_s, [this, group] { sweep_tick(group); });
}

void GroupService::sweep_tick(GroupId group) {
  if (stopped_) return;
  if (group == 0 || group > groups_.size()) return;
  Group& g = *groups_[group - 1];
  if (!g.view.members.empty()) detector_sweep(g);
  schedule_sweep(group);
}

void GroupService::detector_sweep(Group& g) {
  const double now = sched_->now();
  const auto& faults = *service_->network().fault_state();

  // Failed members neither gossip suspicions nor vote: their tracks have
  // frozen, so counting them would eventually indict everyone.
  std::size_t live = 0;
  for (const topo::NodeId m : g.view.members) live += faults.node_failed(m) ? 0 : 1;

  // Evict subjects suspected by a strict majority of the live co-members,
  // deciding in ascending node id.
  std::vector<topo::NodeId> evicted;
  for (const topo::NodeId subject : g.view.members) {
    std::size_t votes = 0;
    for (const topo::NodeId observer : g.view.members) {
      if (observer == subject || faults.node_failed(observer)) continue;
      HeartbeatTrack& t = g.pair(observer, subject).track;
      const double silence = now - t.last_heard;
      const double threshold =
          std::max(config_.phi_threshold * t.smoothed_interval,
                   config_.suspicion_min_timeout_s);
      if (silence > threshold) {
        if (!t.suspected) {
          t.suspected = true;
          stats_.suspicions++;
          if (metrics_.active()) metrics_.suspicions->inc();
        }
        ++votes;
      }
    }
    const std::size_t voters = live - (faults.node_failed(subject) ? 0 : 1);
    if (voters > 0 && votes * 2 > voters) evicted.push_back(subject);
  }
  if (evicted.empty()) return;

  for (const topo::NodeId subject : evicted) {
    stats_.evictions++;
    if (metrics_.active()) metrics_.evictions->inc();
    if (!faults.node_failed(subject)) {
      stats_.false_positive_evictions++;
      if (metrics_.active()) metrics_.false_positives->inc();
    }
  }
  std::vector<topo::NodeId> members;
  members.reserve(g.view.members.size());
  for (const topo::NodeId m : g.view.members) {
    if (!std::binary_search(evicted.begin(), evicted.end(), m)) members.push_back(m);
  }
  install_view(g, std::move(members));
}

SeqNum GroupService::send(GroupId group, topo::NodeId sender, ReportFn on_report) {
  Group& g = group_at(group);
  if (!g.view.contains(sender)) {
    throw std::invalid_argument("GroupService::send: node " + std::to_string(sender) +
                                " is not a member of group " + std::to_string(group));
  }
  return enqueue_or_launch(g, sender, std::move(on_report), {}, false);
}

SeqNum GroupService::send_to(GroupId group, topo::NodeId sender,
                             std::vector<topo::NodeId> dests, ReportFn on_report) {
  Group& g = group_at(group);
  if (!g.view.contains(sender)) {
    throw std::invalid_argument("GroupService::send_to: node " + std::to_string(sender) +
                                " is not a member of group " + std::to_string(group));
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  if (dests.empty()) {
    throw std::invalid_argument("GroupService::send_to: empty destination set");
  }
  for (const topo::NodeId d : dests) {
    if (d == sender) {
      throw std::invalid_argument("GroupService::send_to: destination " +
                                  std::to_string(d) + " is the sender");
    }
    if (!g.view.contains(d)) {
      throw std::invalid_argument("GroupService::send_to: destination " +
                                  std::to_string(d) + " is not a member of group " +
                                  std::to_string(group));
    }
  }
  return enqueue_or_launch(g, sender, std::move(on_report), std::move(dests), true);
}

SeqNum GroupService::enqueue_or_launch(Group& g, topo::NodeId sender, ReportFn on_report,
                                       std::vector<topo::NodeId> dests, bool subset) {
  SenderState& st = g.member(sender).sender;
  const SeqNum seq = st.next_seq++;
  stats_.sends++;
  if (metrics_.active()) metrics_.sends->inc();

  if (st.queue.empty() && seq < st.lowest_unstable + config_.window_size) {
    launch(g, sender, seq, std::move(on_report), dests, subset);
    advance_window(g, sender);  // a destination-less send is stable at once
  } else {
    stats_.window_stalls++;
    if (metrics_.active()) metrics_.window_stalls->inc();
    st.queue.push_back(QueuedSend{seq, std::move(on_report), std::move(dests), subset});
    update_stalled(st);
  }
  return seq;
}

void GroupService::launch(Group& g, topo::NodeId sender, SeqNum seq, ReportFn on_report,
                          const std::vector<topo::NodeId>& subset_dests, bool subset) {
  auto msg = std::make_shared<PendingMsg>();
  msg->seq = seq;
  msg->view = g.view.id;
  msg->sent_at = sched_->now();
  msg->on_report = std::move(on_report);

  // The view may have changed while this send sat in the queue; it then
  // launches with whatever membership is left -- subset destinations
  // evicted meanwhile are dropped from the owed set here, and members
  // outside a subset observe the sequence as a pre-plugged hole so their
  // in-order streams never wedge on it.
  std::vector<topo::NodeId> dests;
  std::vector<topo::NodeId> holes;
  dests.reserve(g.view.members.size());
  for (const topo::NodeId m : g.view.members) {
    if (m == sender) continue;
    if (subset &&
        !std::binary_search(subset_dests.begin(), subset_dests.end(), m)) {
      holes.push_back(m);
      continue;
    }
    msg->dests.try_emplace(m, PendingMsg::Dest{g.member(m).incarnation, false,
                                               GroupOutcome::kDropped, -1.0});
    dests.push_back(m);
  }
  msg->open = msg->dests.size();
  g.member(sender).sender.ring[seq % config_.window_size] = msg;
  for (const topo::NodeId m : holes) stream_update(g, m, sender, seq, false);
  if (dests.empty()) return;  // singleton group / fully-evicted subset

  const GroupId gid = g.id;
  service_->multicast_reliable(
      {sender, std::move(dests)},
      [this, gid, sender, seq](const DeliveryReport& r) {
        reliable_report(gid, sender, seq, r);
      },
      config_.retry,
      [this, gid, sender, seq](topo::NodeId dest, double latency_s) {
        classify_delivery(gid, seq, sender, dest, latency_s);
      });
}

void GroupService::classify_delivery(GroupId group, SeqNum seq, topo::NodeId sender,
                                     topo::NodeId dest, double latency) {
  if (group == 0 || group > groups_.size()) return;
  Group& g = *groups_[group - 1];
  const std::shared_ptr<PendingMsg> msg =
      g.member(sender).sender.ring[seq % config_.window_size];
  if (!msg || msg->seq != seq) {
    // The message already stabilised (its owed set shrank under a view
    // change); a delivery landing now is to an evicted member -- discard.
    stats_.delivered_filtered++;
    if (metrics_.active()) metrics_.delivered_filtered->inc();
    return;
  }
  const auto dit = msg->dests.find(dest);
  if (dit == msg->dests.end() || dit->second.terminal) {
    stats_.delivered_filtered++;
    if (metrics_.active()) metrics_.delivered_filtered->inc();
    return;
  }

  if (g.is_member(dest, dit->second.incarnation)) {
    finish_destination(g, sender, *msg, dest, GroupOutcome::kDeliveredInView, latency);
  } else {
    stats_.delivered_filtered++;
    if (metrics_.active()) metrics_.delivered_filtered->inc();
    finish_destination(g, sender, *msg, dest, GroupOutcome::kEvicted, -1.0);
  }
  advance_window(g, sender);
}

void GroupService::reliable_report(GroupId group, topo::NodeId sender, SeqNum seq,
                                   const DeliveryReport& report) {
  if (group == 0 || group > groups_.size()) return;
  Group& g = *groups_[group - 1];
  const std::shared_ptr<PendingMsg> msg =
      g.member(sender).sender.ring[seq % config_.window_size];
  if (!msg || msg->seq != seq) return;  // already stable via evictions

  for (const auto& d : report.destinations) {
    const auto dit = msg->dests.find(d.node);
    if (dit == msg->dests.end() || dit->second.terminal) continue;
    switch (d.status) {
      case DeliveryReport::Status::kDelivered: {
        // Normally classified by the per-delivery callback; fall back to
        // the same membership check here.
        const bool member = g.is_member(d.node, dit->second.incarnation);
        finish_destination(g, sender, *msg, d.node,
                           member ? GroupOutcome::kDeliveredInView
                                  : GroupOutcome::kEvicted,
                           member ? d.latency_s : -1.0);
        break;
      }
      case DeliveryReport::Status::kDropped:
        finish_destination(g, sender, *msg, d.node, GroupOutcome::kDropped, -1.0);
        break;
      case DeliveryReport::Status::kUnreachable:
        finish_destination(g, sender, *msg, d.node, GroupOutcome::kUnreachable, -1.0);
        break;
    }
  }
  advance_window(g, sender);
}

void GroupService::finish_destination(Group& g, topo::NodeId sender, PendingMsg& msg,
                                      topo::NodeId dest, GroupOutcome outcome,
                                      double latency) {
  const auto dit = msg.dests.find(dest);
  if (dit == msg.dests.end() || dit->second.terminal) return;
  dit->second.terminal = true;
  dit->second.outcome = outcome;
  dit->second.latency_s = latency;
  --msg.open;

  switch (outcome) {
    case GroupOutcome::kDeliveredInView:
      stats_.delivered_in_view++;
      if (metrics_.active()) {
        metrics_.delivered_in_view->inc();
        metrics_.delivery_latency_s->record(latency);
      }
      stream_update(g, dest, sender, msg.seq, true);
      break;
    case GroupOutcome::kDropped:
      stats_.dropped++;
      if (metrics_.active()) metrics_.dropped->inc();
      stream_update(g, dest, sender, msg.seq, false);
      break;
    case GroupOutcome::kUnreachable:
      stats_.unreachable++;
      if (metrics_.active()) metrics_.unreachable->inc();
      stream_update(g, dest, sender, msg.seq, false);
      break;
    case GroupOutcome::kEvicted:
      stream_update(g, dest, sender, msg.seq, false);
      break;
  }
}

void GroupService::advance_window(Group& g, topo::NodeId sender) {
  const std::uint32_t w = config_.window_size;
  // One stabilisation or one queued launch per iteration, re-reading the
  // window each time: fire_report and launch both run user code, which
  // may send from this sender.
  SenderState& st = g.member(sender).sender;
  for (;;) {
    if (st.lowest_unstable < st.next_seq) {
      auto& slot = st.ring[st.lowest_unstable % w];
      if (slot && slot->seq == st.lowest_unstable && slot->open == 0) {
        const auto msg = std::move(slot);
        ++st.lowest_unstable;
        fire_report(g, sender, *msg);
        continue;
      }
    }
    if (!st.queue.empty() && st.queue.front().seq < st.lowest_unstable + w) {
      QueuedSend q = std::move(st.queue.front());
      st.queue.pop_front();
      launch(g, sender, q.seq, std::move(q.on_report), q.dests, q.subset);
      continue;
    }
    update_stalled(st);
    return;
  }
}

void GroupService::fire_report(Group& g, topo::NodeId sender, const PendingMsg& msg) {
  GroupSendReport r;
  r.group = g.id;
  r.sender = sender;
  r.seq = msg.seq;
  r.view = msg.view;
  r.sent_at_s = msg.sent_at;
  r.stable_at_s = sched_->now();
  r.destinations.reserve(msg.dests.size());
  r.stable_in_view = true;
  for (const auto& [node, ds] : msg.dests) {
    r.destinations.push_back(GroupSendReport::Destination{node, ds.outcome, ds.latency_s});
    // A destination still in the group that did not get the message in
    // view breaks virtual-synchrony stability; one that departed does not.
    if (g.is_member(node, ds.incarnation) && ds.outcome != GroupOutcome::kDeliveredInView) {
      r.stable_in_view = false;
    }
  }
  if (r.stable_in_view && metrics_.active()) {
    metrics_.stability_latency_s->record(r.stable_at_s - r.sent_at_s);
  }
  if (msg.on_report) msg.on_report(r);
}

void GroupService::stream_update(Group& g, topo::NodeId receiver, topo::NodeId sender,
                                 SeqNum seq, bool deliverable) {
  std::optional<ReceiverStream>& entry = g.pair(receiver, sender).stream;
  ReceiverStream& stream = entry ? *entry : entry.emplace();
  if (seq < stream.next) return;  // before this receiver's join floor
  stream.pending.insert_or_assign(seq, deliverable);
  // Surface in-order deliveries one at a time, re-reading the stream after
  // each: notify_delivery runs user code that may feed this same stream.
  while (!stream.pending.empty() && stream.pending.begin()->first == stream.next) {
    const bool ok = stream.pending.begin()->second;
    stream.pending.erase(stream.pending.begin());
    const SeqNum surfaced = stream.next++;
    if (ok && g.view.contains(receiver)) {
      stats_.app_deliveries++;
      if (metrics_.active()) metrics_.app_deliveries->inc();
      notify_delivery(g.id, receiver, sender, surfaced, g.view.id);
    }
  }
}

void GroupService::notify_delivery(GroupId group, topo::NodeId receiver,
                                   topo::NodeId sender, SeqNum seq, ViewId view) {
  if (app_delivery_) app_delivery_(group, receiver, sender, seq, view);
  fire_hooks(delivery_hooks_, group, receiver, sender, seq, view);
}

template <typename Fn, typename... Args>
void GroupService::fire_hooks(util::FlatMap<std::uint64_t, Fn>& hooks, const Args&... args) {
  // Walk the table in place instead of snapshotting its handles: a hook
  // added meanwhile has a handle at or above `limit`, and one removed by an
  // earlier hook is no longer found.
  const std::uint64_t limit = next_hook_;
  for (std::uint64_t h = 0;;) {
    const auto it = hooks.lower_bound(h);
    if (it == hooks.end() || it->first >= limit) return;
    h = it->first + 1;
    Fn fn = it->second;  // copy: the hook may remove itself
    fn(args...);
  }
}

void GroupService::update_stalled(SenderState& st) {
  const bool stalled = !st.queue.empty();
  if (stalled == st.counted_stalled) return;
  st.counted_stalled = stalled;
  if (stalled) {
    ++stalled_senders_;
  } else {
    --stalled_senders_;
  }
  if (metrics_.active()) {
    metrics_.window_stalled->set(static_cast<double>(stalled_senders_));
  }
}

std::uint64_t GroupService::add_delivery_hook(AppDeliveryFn fn) {
  const std::uint64_t h = next_hook_++;
  delivery_hooks_.try_emplace(h, std::move(fn));
  return h;
}

void GroupService::remove_delivery_hook(std::uint64_t handle) {
  delivery_hooks_.erase(handle);
}

std::uint64_t GroupService::add_view_settled_hook(ViewFn fn) {
  const std::uint64_t h = next_hook_++;
  view_settled_hooks_.try_emplace(h, std::move(fn));
  return h;
}

void GroupService::remove_view_settled_hook(std::uint64_t handle) {
  view_settled_hooks_.erase(handle);
}

const MembershipView& GroupService::view(GroupId group) const {
  return group_at(group).view;
}

const std::vector<MembershipView>& GroupService::view_history(GroupId group) const {
  return group_at(group).history;
}

std::size_t GroupService::in_flight(GroupId group, topo::NodeId sender) const {
  const Member* m = group_at(group).find(sender);
  if (m == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& slot : m->sender.ring) n += slot ? 1 : 0;
  return n;
}

std::size_t GroupService::queued(GroupId group, topo::NodeId sender) const {
  const Member* m = group_at(group).find(sender);
  return m == nullptr ? 0 : m->sender.queue.size();
}

void GroupService::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.view_installs = &registry->counter("group.view_installs");
  metrics_.joins = &registry->counter("group.joins");
  metrics_.leaves = &registry->counter("group.leaves");
  metrics_.suspicions = &registry->counter("group.suspicions");
  metrics_.evictions = &registry->counter("group.evictions");
  metrics_.false_positives = &registry->counter("group.false_positive_evictions");
  metrics_.sends = &registry->counter("group.sends");
  metrics_.window_stalls = &registry->counter("group.window_stalls");
  metrics_.heartbeats = &registry->counter("group.heartbeats");
  metrics_.view_messages = &registry->counter("group.view_messages");
  metrics_.delivered_in_view = &registry->counter("group.delivered_in_view");
  metrics_.delivered_filtered = &registry->counter("group.delivered_filtered");
  metrics_.dropped = &registry->counter("group.dropped");
  metrics_.unreachable = &registry->counter("group.unreachable");
  metrics_.app_deliveries = &registry->counter("group.app_deliveries");
  metrics_.window_stalled = &registry->gauge("group.window_stalled");
  metrics_.stability_latency_s = &registry->histogram("group.stability_latency_s");
  metrics_.delivery_latency_s = &registry->histogram("group.delivery_latency_s");
}

}  // namespace mcnet::svc
