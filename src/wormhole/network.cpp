#include "wormhole/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace mcnet::worm {

namespace {

constexpr std::uint8_t kNotGranted = 0xFF;
/// A drain milestone that will not come: its cursor is used up.
constexpr double kNever = std::numeric_limits<double>::infinity();

[[noreturn]] void bad_spec(std::size_t spec, const char* array, std::size_t i,
                           const char* field, const std::string& why) {
  throw std::invalid_argument("Network::inject: spec " + std::to_string(spec) + ": " + array +
                              "[" + std::to_string(i) + "]." + field + " " + why);
}

}  // namespace

Network::Network(const topo::Topology& topology, const WormholeParams& params,
                 evsim::Scheduler& sched, std::shared_ptr<fault::FaultState> faults)
    : topology_(&topology),
      params_(params),
      sched_(&sched),
      pool_(topology.num_channels(), params.channel_copies, params.arbitration,
            [this](std::uint32_t worm_id) { return worms_[worm_id].t_created; }),
      faults_(std::move(faults)) {
  if (params.message_flits == 0) throw std::invalid_argument("message needs >= 1 flit");
  if (!(params.flit_time > 0.0) || !std::isfinite(params.flit_time)) {
    throw std::invalid_argument("flit time must be positive and finite");
  }
  // Header advances and drain milestones are due one flit time ahead:
  // they ride the scheduler's FIFO lane instead of its calendar.
  sched.register_lane_delay(params.flit_time);
  if (!faults_) faults_ = std::make_shared<fault::FaultState>(topology);
  if (faults_->topology().num_channels() != topology.num_channels()) {
    throw std::invalid_argument("fault state built for another topology");
  }
  acquired_at_.assign(static_cast<std::size_t>(topology.num_channels()) *
                          params.channel_copies,
                      0.0);
}

void Network::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.injections = &registry->counter("network.injections");
  metrics_.deliveries = &registry->counter("network.deliveries");
  metrics_.drops = &registry->counter("network.drops");
  metrics_.worms_killed = &registry->counter("network.worms_killed");
  metrics_.delivery_latency_s = &registry->histogram("network.delivery_latency_s");
  metrics_.grant_wait_s = &registry->histogram("network.grant_wait_s");
  metrics_.channel_hold_s = &registry->histogram("network.channel_hold_s");
  metrics_.channel_busy_time_s = &registry->gauge("network.channel_busy_time_s");
}

void Network::note_grant(ChannelId c, std::uint8_t copy) {
  acquired_at_[phys_index(c, copy)] = sched_->now();
  if (hooks_.on_channel_grant) {
    hooks_.on_channel_grant(c, copy, pool_.holder(c, copy), sched_->now());
  }
}

void Network::note_release(ChannelId c, std::uint8_t copy) {
  const double held = sched_->now() - acquired_at_[phys_index(c, copy)];
  busy_time_ += held;
  if (metrics_.active()) {
    metrics_.channel_hold_s->record(held);
    metrics_.channel_busy_time_s->add(held);
  }
  if (hooks_.on_channel_release) {
    hooks_.on_channel_release(c, copy, pool_.holder(c, copy), sched_->now());
  }
}

double Network::utilization() const {
  const double elapsed = sched_->now();
  if (elapsed <= 0.0) return 0.0;
  // In-flight holds are counted up to "now".
  double busy = busy_time_;
  for (ChannelId c = 0; c < pool_.num_channels(); ++c) {
    for (std::uint8_t k = 0; k < pool_.copies(); ++k) {
      if (pool_.holder(c, k) != kNoWorm) busy += elapsed - acquired_at_[phys_index(c, k)];
    }
  }
  return busy / (elapsed * static_cast<double>(acquired_at_.size()));
}

void Network::validate_specs(const std::vector<WormSpec>& specs) const {
  const std::uint32_t num_channels = topology_->num_channels();
  const std::uint32_t num_nodes = topology_->num_nodes();
  const std::uint8_t copies = params_.channel_copies;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const WormSpec& spec = specs[s];
    if (spec.links.empty()) {
      throw std::invalid_argument("Network::inject: spec " + std::to_string(s) +
                                  ": links is empty");
    }
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < spec.links.size(); ++i) {
      const WormLink& link = spec.links[i];
      if (link.depth != prev + 1 && (i == 0 || link.depth != prev)) {
        bad_spec(s, "links", i, "depth",
                 std::to_string(link.depth) +
                     (i == 0 ? " must be 1"
                             : " after depth " + std::to_string(prev) +
                                   " (each depth repeats the previous one or adds one)"));
      }
      prev = link.depth;
      if (link.channel >= num_channels) {
        bad_spec(s, "links", i, "channel",
                 std::to_string(link.channel) + " out of range (network has " +
                     std::to_string(num_channels) + " channels)");
      }
      if (link.copy != kAnyCopy && (link.copy < 0 || link.copy >= copies)) {
        bad_spec(s, "links", i, "copy",
                 std::to_string(link.copy) + " is neither kAnyCopy nor below channel_copies " +
                     std::to_string(copies));
      }
    }
    const std::uint32_t max_depth = prev;
    for (std::size_t i = 0; i < spec.deliveries.size(); ++i) {
      const auto [depth, dest] = spec.deliveries[i];
      if (depth < 1 || depth > max_depth) {
        bad_spec(s, "deliveries", i, "depth",
                 std::to_string(depth) + " outside [1, " + std::to_string(max_depth) +
                     "] (the worm's deepest link)");
      }
      if (i > 0 && depth < spec.deliveries[i - 1].first) {
        bad_spec(s, "deliveries", i, "depth",
                 std::to_string(depth) + " after depth " +
                     std::to_string(spec.deliveries[i - 1].first) + " (not sorted by depth)");
      }
      if (dest >= num_nodes) {
        bad_spec(s, "deliveries", i, "destination",
                 std::to_string(dest) + " out of range (network has " +
                     std::to_string(num_nodes) + " nodes)");
      }
    }
  }
}

void Network::reset_slot(Worm& w) {
  std::vector<std::uint32_t> depth_start = std::move(w.depth_start);
  std::vector<std::uint8_t> copy_used = std::move(w.copy_used);
  w = Worm{};
  w.depth_start = std::move(depth_start);
  w.copy_used = std::move(copy_used);
  w.depth_start.clear();
  w.copy_used.clear();
}

void Network::index_links(Worm& w) {
  w.max_depth = w.links.back().depth;
  w.copy_used.assign(w.links.size(), kNotGranted);
  // depth_start[d] = first link index at depth >= d, for d in [1, max+1].
  w.depth_start.assign(w.max_depth + 2, static_cast<std::uint32_t>(w.links.size()));
  for (auto i = static_cast<std::uint32_t>(w.links.size()); i-- > 0;) {
    w.depth_start[w.links[i].depth] = i;
  }
  for (std::uint32_t d = w.max_depth; d >= 1; --d) {
    w.depth_start[d] = std::min(w.depth_start[d], w.depth_start[d + 1]);
  }
}

void Network::set_due_progress(Worm& w) const {
  const std::uint32_t l = params_.message_flits;
  std::uint32_t due = std::numeric_limits<std::uint32_t>::max();
  if (w.next_release < w.links.size()) due = w.links[w.next_release].depth + l;
  if (w.next_delivery < w.deliveries.size()) {
    due = std::min(due, w.deliveries[w.next_delivery].first + l - 1);
  }
  w.due_progress = due;
}

double Network::delivery_due(const Worm& w) const {
  if (w.next_delivery >= w.deliveries.size()) return kNever;
  const std::uint32_t l = params_.message_flits;
  return w.drain_t0 + static_cast<double>(w.deliveries[w.next_delivery].first + l - 1 -
                                          w.progress) *
                          params_.flit_time;
}

double Network::release_due(const Worm& w) const {
  if (w.next_release >= w.links.size()) return kNever;
  const std::uint32_t l = params_.message_flits;
  return w.drain_t0 +
         static_cast<double>(w.links[w.next_release].depth + l - w.progress) * params_.flit_time;
}

std::uint64_t Network::inject(std::vector<WormSpec> specs) {
  validate_specs(specs);
  const std::uint64_t msg = next_message_++;
  messages_.push_back(Message{sched_->now(), static_cast<std::uint32_t>(specs.size())});
  if (metrics_.active()) metrics_.injections->inc();
  if (hooks_.on_inject) hooks_.on_inject(msg, sched_->now());
  if (specs.empty()) {
    ++messages_completed_;
    if (hooks_.on_message_done) hooks_.on_message_done(msg, 0.0);
    return msg;
  }
  for (WormSpec& spec : specs) {
    const std::uint32_t id = allocate_worm();
    Worm& w = worms_[id];
    reset_slot(w);
    w.message = msg;
    w.t_created = sched_->now();
    w.links = std::move(spec.links);
    w.deliveries = std::move(spec.deliveries);
    index_links(w);
    set_due_progress(w);
    w.active = true;
    ++active_worms_;
    begin_frontier(id);
  }
  return msg;
}

std::uint32_t Network::allocate_worm() {
  if (!free_worm_slots_.empty()) {
    const std::uint32_t id = free_worm_slots_.back();
    free_worm_slots_.pop_back();
    return id;
  }
  worms_.emplace_back();
  worm_gen_.push_back(0);
  return static_cast<std::uint32_t>(worms_.size() - 1);
}

void Network::begin_frontier(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  const std::uint32_t depth = w.progress + 1;
  const std::uint32_t begin = w.depth_start[depth];
  const std::uint32_t end = w.depth_start[depth + 1];
  // A frontier touching failed hardware kills the worm: it can never be
  // granted, and letting it hold-and-wait would wedge the network.  The
  // kill happens before the frontier is recorded, so it finds no waits.
  if (!faults_->healthy()) {
    for (std::uint32_t i = begin; i < end; ++i) {
      if (!faults_->channel_usable(w.links[i].channel)) {
        kill_worm(worm_id);
        return;
      }
    }
  }
  w.frontier_begin = begin;
  w.frontier_end = end;
  w.granted = 0;
  const std::uint64_t gen = worm_gen_[worm_id];
  for (std::uint32_t i = begin; i < end; ++i) {
    const WormLink& link = worms_[worm_id].links[i];
    const ChannelId channel = link.channel;
    if (const auto copy = pool_.acquire(channel, ChannelRequest{worm_id, i, link.copy})) {
      Worm& held = worms_[worm_id];
      held.copy_used[i] = *copy;
      ++held.granted;
      note_grant(channel, *copy);  // the trace hook may kill this worm or inject
      if (worm_gen_[worm_id] != gen) return;
    }
  }
  Worm& done = worms_[worm_id];
  if (done.granted == end - begin) {
    arm_advance(worm_id);
  } else {
    done.block_started = sched_->now();
    if (params_.virtual_cut_through) vct_absorb(worm_id);
  }
}

// Virtual cut-through blocking: the message is buffered at the head node.
// The worm's held prefix drains and releases (exactly the completion drain
// with the route truncated at the head), while a continuation worm takes
// over the queued FCFS wait and the remaining route suffix.
void Network::vct_absorb(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  if (w.frontier_end - w.frontier_begin != 1) {
    throw std::logic_error("virtual cut-through supports path worms only");
  }
  const std::uint32_t blocked = w.frontier_begin;  // index of the refused link
  if (w.next_release >= blocked) {
    // Nothing is held upstream: waiting in place is free, identical to
    // wormhole semantics (this also covers blocking at injection).
    return;
  }
  const std::uint32_t p = w.progress;

  // Build the continuation: the route suffix rebased to depth 1.
  const std::uint32_t cont = allocate_worm();
  // NOTE: `w` may dangle after allocate_worm (vector growth); re-fetch.
  Worm& old_w = worms_[worm_id];
  Worm& cw = worms_[cont];
  reset_slot(cw);
  cw.message = old_w.message;
  cw.t_created = old_w.t_created;
  cw.links.assign(old_w.links.begin() + blocked, old_w.links.end());
  for (WormLink& l : cw.links) l.depth -= p;
  for (const auto& [depth, dest] : old_w.deliveries) {
    if (depth > p) cw.deliveries.emplace_back(depth - p, dest);
  }
  index_links(cw);
  set_due_progress(cw);
  cw.frontier_begin = 0;
  cw.frontier_end = cw.depth_start[2];
  cw.granted = 0;
  cw.block_started = sched_->now();  // it is waiting from birth
  cw.blocked_time = old_w.blocked_time;
  old_w.blocked_time = 0.0;
  old_w.block_started = -1.0;
  cw.active = true;
  ++active_worms_;
  ++messages_[cw.message].worms_left;
  if (!pool_.retarget(cw.links[0].channel, worm_id, blocked, cont, 0)) {
    throw std::logic_error("VCT retarget failed: no queued request");
  }

  // Truncate the original worm at the head node and drain it there.
  old_w.links.resize(blocked);
  std::erase_if(old_w.deliveries, [p](const auto& d) { return d.first > p; });
  old_w.next_delivery = std::min<std::uint32_t>(
      old_w.next_delivery, static_cast<std::uint32_t>(old_w.deliveries.size()));
  old_w.copy_used.resize(blocked);
  old_w.max_depth = p;
  drain(worm_id);
}

void Network::on_grant(std::uint32_t worm_id, std::uint32_t link_index, std::uint8_t copy) {
  // Record the grant before the trace hook sees it: a hook that kills
  // this worm must find the channel on record to release it again.
  {
    Worm& held = worms_[worm_id];
    held.copy_used[link_index] = copy;
    ++held.granted;
  }
  const std::uint64_t gen = worm_gen_[worm_id];
  note_grant(worms_[worm_id].links[link_index].channel, copy);  // may kill or inject
  if (worm_gen_[worm_id] != gen) return;
  Worm& w = worms_[worm_id];
  if (w.granted == w.frontier_end - w.frontier_begin) {
    if (w.block_started >= 0.0) {
      const double waited = sched_->now() - w.block_started;
      w.blocked_time += waited;
      w.block_started = -1.0;
      if (metrics_.active()) metrics_.grant_wait_s->record(waited);
    }
    arm_advance(worm_id);
  }
}

void Network::arm_advance(std::uint32_t worm_id) {
  worms_[worm_id].pending =
      sched_->schedule_in(params_.flit_time, [this, worm_id] { advance(worm_id); });
}

void Network::release_link(Worm& w, std::uint32_t link_index) {
  const std::uint8_t copy = w.copy_used[link_index];
  if (copy == kNotGranted) throw std::logic_error("releasing an ungranted link");
  const ChannelId channel = w.links[link_index].channel;
  note_release(channel, copy);
  if (const auto grant = pool_.release(channel, copy)) {
    on_grant(grant->first.worm_id, grant->first.link_index, grant->second);
  }
}

void Network::advance(std::uint32_t worm_id) {
  // NOTE: hooks may call inject(), which can reallocate worms_; never hold
  // a Worm reference across a hook invocation.  A hook can also kill THIS
  // worm (fail_channel / abort_message from a channel-trace or delivery
  // callback) and even reuse its slot, so every callout is followed by a
  // generation check.
  Worm& head = worms_[worm_id];
  head.pending = evsim::EventId{};  // this event just fired
  if (++head.progress >= head.due_progress) {
    const std::uint64_t gen = worm_gen_[worm_id];
    const std::uint32_t l = params_.message_flits;
    // Tail release: link at depth d frees at progress d + L.  Grant
    // cascades fire the channel-trace hooks.
    while (true) {
      Worm& w = worms_[worm_id];
      if (w.next_release >= w.links.size() ||
          w.links[w.next_release].depth + l > w.progress) {
        break;
      }
      const std::uint32_t idx = w.next_release++;
      release_link(w, idx);
      if (worm_gen_[worm_id] != gen) return;  // a hook retired this worm
    }
    // Deliveries: destination at depth d completes at progress d + L - 1.
    while (true) {
      Worm& w = worms_[worm_id];
      if (w.next_delivery >= w.deliveries.size() ||
          w.deliveries[w.next_delivery].first + l - 1 > w.progress) {
        break;
      }
      const auto [depth, dest] = w.deliveries[w.next_delivery++];
      const std::uint64_t message = w.message;
      const double latency = sched_->now() - w.t_created;
      if (metrics_.active()) {
        metrics_.deliveries->inc();
        metrics_.delivery_latency_s->record(latency);
      }
      if (hooks_.on_delivery) hooks_.on_delivery(message, dest, latency);  // may inject
      if (worm_gen_[worm_id] != gen) return;
    }
    set_due_progress(worms_[worm_id]);
  }

  if (worms_[worm_id].progress < worms_[worm_id].max_depth) {
    begin_frontier(worm_id);
  } else {
    drain(worm_id);
  }
}

void Network::drain(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  w.frontier_begin = w.frontier_end = 0;  // nothing left to acquire
  w.drain_t0 = sched_->now();
  // The next_delivery / next_release cursors advance as each milestone
  // actually fires (not eagerly here), so a mid-drain kill_worm sees
  // exactly which links are still held and which destinations are still
  // owed a delivery.  Each cursor's milestone time is derived once, when
  // the cursor reaches it.
  w.t_delivery = delivery_due(w);
  w.t_release = release_due(w);
  arm_drain(worm_id);
}

void Network::arm_drain(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  // Finish is the latest milestone (deliveries sit at < L flit times,
  // releases at <= L) and ran last in the per-event code, so it is the
  // fallback, not a min candidate on its own.
  const double t_finish =
      w.drain_t0 + static_cast<double>(params_.message_flits) * params_.flit_time;
  const double t_next = std::min(t_finish, std::min(w.t_delivery, w.t_release));
  w.pending = sched_->schedule_at(t_next, [this, worm_id] { drain_step(worm_id); });
}

void Network::drain_step(std::uint32_t worm_id) {
  worms_[worm_id].pending = evsim::EventId{};
  const std::uint64_t gen = worm_gen_[worm_id];
  const double now = sched_->now();

  // Deliveries due now run before releases due now -- the per-event code
  // scheduled all deliveries first, so equal-time ties broke the same way.
  while (worms_[worm_id].t_delivery <= now) {
    Worm& w = worms_[worm_id];
    const NodeId dest = w.deliveries[w.next_delivery++].second;
    w.t_delivery = delivery_due(w);
    const std::uint64_t message = w.message;
    const double latency = now - w.t_created;
    if (metrics_.active()) {
      metrics_.deliveries->inc();
      metrics_.delivery_latency_s->record(latency);
    }
    if (hooks_.on_delivery) hooks_.on_delivery(message, dest, latency);  // may inject
    if (worm_gen_[worm_id] != gen) return;  // a hook retired this worm
  }
  while (worms_[worm_id].t_release <= now) {
    Worm& w = worms_[worm_id];
    const std::uint32_t idx = w.next_release++;
    w.t_release = release_due(w);
    release_link(w, idx);
    if (worm_gen_[worm_id] != gen) return;
  }

  const Worm& w = worms_[worm_id];
  const double t_finish =
      w.drain_t0 + static_cast<double>(params_.message_flits) * params_.flit_time;
  if (w.t_delivery == kNever && w.t_release == kNever && t_finish <= now) {
    ++worm_gen_[worm_id];  // invalidate victim snapshots / in-flight loop guards
    retire_worm(worm_id, {});
    return;
  }
  arm_drain(worm_id);
}

void Network::retire_worm(std::uint32_t worm_id, const std::vector<NodeId>& dropped) {
  // Retire the slot completely before any hook fires: a hook may inject
  // new multicasts, reallocating worms_ / messages_ and reusing this slot.
  Worm& w = worms_[worm_id];
  const std::uint64_t message_id = w.message;
  blocked_time_total_ += w.blocked_time;
  w.active = false;
  w.links.clear();
  w.links.shrink_to_fit();
  w.deliveries.clear();
  w.copy_used.clear();
  w.depth_start.clear();
  --active_worms_;
  free_worm_slots_.push_back(worm_id);

  if (hooks_.on_drop) {
    const double now = sched_->now();
    for (const NodeId d : dropped) hooks_.on_drop(message_id, d, now);  // may inject
  }
  if (--messages_[message_id].worms_left != 0) return;
  const double t_created = messages_[message_id].t_created;
  ++messages_completed_;
  if (hooks_.on_message_done) {
    hooks_.on_message_done(message_id, sched_->now() - t_created);  // may inject
  }
}

void Network::kill_worm(std::uint32_t worm_id) {
  if (!worms_[worm_id].active) return;
  // A dying worm is inactive at once: the release cascade below fires
  // hooks that may abort its message or fail a channel it still holds.
  worms_[worm_id].active = false;
  ++worm_gen_[worm_id];  // invalidate victim snapshots / in-flight loop guards
  // True cancellation: the worm's pending advance/drain_step dies in the
  // kernel (its closure is destroyed, never dispatched) instead of firing
  // as a stale generation-checked no-op.
  sched_->cancel(worms_[worm_id].pending);
  worms_[worm_id].pending = evsim::EventId{};
  {
    // A worm queues only on its current frontier, and a granted link's
    // request has left the queue: cancel the ungranted frontier links'
    // requests and leave every other channel's waiters alone.
    Worm& w = worms_[worm_id];
    for (std::uint32_t i = w.frontier_begin; i < w.frontier_end; ++i) {
      if (w.copy_used[i] == kNotGranted) {
        (void)pool_.cancel_request(w.links[i].channel, worm_id, i);
      }
    }
    if (w.block_started >= 0.0) {
      w.blocked_time += sched_->now() - w.block_started;
      w.block_started = -1.0;
    }
  }
  // Destinations the worm still owed a delivery are dropped.
  std::vector<NodeId> dropped;
  {
    const Worm& w = worms_[worm_id];
    for (std::uint32_t i = w.next_delivery; i < w.deliveries.size(); ++i) {
      dropped.push_back(w.deliveries[i].second);
    }
  }
  // Release surviving holds; grant cascades fire the channel-trace hooks,
  // which may inject, so re-fetch the worm reference every iteration.
  const std::uint32_t num_links = static_cast<std::uint32_t>(worms_[worm_id].links.size());
  for (std::uint32_t i = worms_[worm_id].next_release; i < num_links; ++i) {
    Worm& w = worms_[worm_id];
    if (w.copy_used[i] == kNotGranted) continue;
    release_link(w, i);
  }

  ++worms_killed_;
  deliveries_dropped_ += dropped.size();
  if (metrics_.active()) {
    metrics_.worms_killed->inc();
    metrics_.drops->inc(dropped.size());
  }
  retire_worm(worm_id, dropped);
}

void Network::kill_channel_users(ChannelId c) {
  // Snapshot (worm, generation) pairs first: kills cascade grants and may
  // inject via hooks, either of which reshuffles pool state under us.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> victims;
  for (std::uint8_t k = 0; k < pool_.copies(); ++k) {
    const std::uint32_t holder = pool_.holder(c, k);
    if (holder != kNoWorm) victims.emplace_back(holder, worm_gen_[holder]);
  }
  for (const ChannelRequest& req : pool_.waiters(c)) {
    victims.emplace_back(req.worm_id, worm_gen_[req.worm_id]);
  }
  for (const auto& [id, gen] : victims) {
    if (worm_gen_[id] == gen && worms_[id].active) kill_worm(id);
  }
}

void Network::fail_channel(ChannelId c) {
  if (!faults_->fail_channel(c)) return;
  kill_channel_users(c);
}

void Network::recover_channel(ChannelId c) { faults_->recover_channel(c); }

void Network::fail_node(NodeId n) {
  if (!faults_->fail_node(n)) return;
  // Every channel incident to the node is now unusable; evict its users.
  // neighbors() returns a span into the immutable topology, so it stays
  // valid across the kill cascades.
  for (const NodeId v : topology_->neighbors(n)) {
    kill_channel_users(topology_->channel(n, v));
    kill_channel_users(topology_->channel(v, n));
  }
}

void Network::recover_node(NodeId n) { faults_->recover_node(n); }

void Network::abort_message(std::uint64_t message_id) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> victims;
  for (std::uint32_t id = 0; id < worms_.size(); ++id) {
    if (worms_[id].active && worms_[id].message == message_id) {
      victims.emplace_back(id, worm_gen_[id]);
    }
  }
  for (const auto& [id, gen] : victims) {
    if (worm_gen_[id] == gen && worms_[id].active) kill_worm(id);
  }
}

std::vector<std::uint32_t> Network::find_deadlock() const {
  // Wait-for edges: blocked worm -> every worm holding a copy that could
  // satisfy one of its ungranted frontier links.
  const std::uint32_t n = static_cast<std::uint32_t>(worms_.size());
  std::vector<std::vector<std::uint32_t>> edges(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    const Worm& w = worms_[id];
    if (!w.blocked()) continue;
    for (std::uint32_t i = w.frontier_begin; i < w.frontier_end; ++i) {
      if (w.copy_used[i] != kNotGranted) continue;
      const WormLink& link = w.links[i];
      for (std::uint8_t k = 0; k < pool_.copies(); ++k) {
        if (link.copy != kAnyCopy && link.copy != static_cast<std::int8_t>(k)) continue;
        const std::uint32_t holder = pool_.holder(link.channel, k);
        if (holder != kNoWorm && holder != id) edges[id].push_back(holder);
      }
    }
  }
  // DFS cycle detection over the wait-for graph.
  enum class Colour : std::uint8_t { White, Grey, Black };
  std::vector<Colour> colour(n, Colour::White);
  std::vector<std::uint32_t> path;
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (colour[root] != Colour::White || edges[root].empty()) continue;
    stack.emplace_back(root, 0);
    colour[root] = Colour::Grey;
    path.push_back(root);
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < edges[u].size()) {
        const std::uint32_t v = edges[u][idx++];
        if (colour[v] == Colour::Grey) {
          const auto it = std::find(path.begin(), path.end(), v);
          return {it, path.end()};
        }
        if (colour[v] == Colour::White) {
          colour[v] = Colour::Grey;
          stack.emplace_back(v, 0);
          path.push_back(v);
        }
      } else {
        colour[u] = Colour::Black;
        stack.pop_back();
        path.pop_back();
      }
    }
  }
  return {};
}

std::string Network::describe_worm(std::uint32_t worm_id) const {
  const Worm& w = worms_[worm_id];
  std::ostringstream os;
  os << "worm " << worm_id << " (message " << w.message << ", progress " << w.progress << "/"
     << w.max_depth << ")";
  if (!w.active) {
    os << " [finished]";
    return os.str();
  }
  os << " holds {";
  bool first = true;
  for (std::uint32_t i = 0; i < w.links.size(); ++i) {
    if (w.copy_used[i] == kNotGranted) continue;
    if (i < w.next_release) continue;  // already released
    os << (first ? "" : ", ") << "[" << w.links[i].from << "->" << w.links[i].to << "]";
    first = false;
  }
  os << "}";
  if (w.blocked()) {
    os << " waits {";
    first = true;
    for (std::uint32_t i = w.frontier_begin; i < w.frontier_end; ++i) {
      if (w.copy_used[i] != kNotGranted) continue;
      os << (first ? "" : ", ") << "[" << w.links[i].from << "->" << w.links[i].to << "]";
      first = false;
    }
    os << "}";
  }
  return os.str();
}

}  // namespace mcnet::worm
