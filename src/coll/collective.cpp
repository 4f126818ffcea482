#include "coll/collective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "evsim/scheduler.hpp"
#include "obs/metrics.hpp"

namespace mcnet::coll {

const char* to_string(OpKind op) {
  switch (op) {
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kBarrier: return "barrier";
    case OpKind::kAllgather: return "allgather";
    case OpKind::kAllreduce: return "allreduce";
    case OpKind::kAllToAllBroadcast: return "all_to_all_broadcast";
  }
  return "?";
}

void CollConfig::validate() const {
  if (chunks == 0) {
    throw std::invalid_argument("CollConfig.chunks must be >= 1 (got 0)");
  }
  if (max_reissues_per_chunk == 0) {
    throw std::invalid_argument("CollConfig.max_reissues_per_chunk must be >= 1 (got 0)");
  }
  if (!(reissue_backoff_s >= 0.0) || !std::isfinite(reissue_backoff_s)) {
    throw std::invalid_argument("CollConfig.reissue_backoff_s must be finite and >= 0 (got " +
                                std::to_string(reissue_backoff_s) + ")");
  }
}

Collective::Collective(svc::GroupService& groups, svc::GroupId group, CollConfig config)
    : groups_(&groups),
      group_(group),
      config_(config),
      alive_token_(std::make_shared<const bool>(true)) {
  config_.validate();
  (void)groups_->view(group_);  // throws for an unknown group
  delivery_hook_ = groups_->add_delivery_hook(
      [this](svc::GroupId g, topo::NodeId receiver, topo::NodeId sender,
             svc::SeqNum seq, svc::ViewId /*view*/) {
        if (g == group_) on_delivery(receiver, sender, seq);
      });
  view_hook_ = groups_->add_view_settled_hook(
      [this](svc::GroupId g, const svc::MembershipView& view) {
        if (g == group_) on_view_settled(view);
      });
}

Collective::~Collective() {
  groups_->remove_delivery_hook(delivery_hook_);
  groups_->remove_view_settled_hook(view_hook_);
}

std::uint64_t Collective::broadcast(topo::NodeId root, DoneFn done) {
  return start_phase(OpKind::kBroadcast, root, std::move(done));
}
std::uint64_t Collective::barrier(DoneFn done) {
  return start_phase(OpKind::kBarrier, topo::kInvalidNode, std::move(done));
}
std::uint64_t Collective::allgather(DoneFn done) {
  return start_phase(OpKind::kAllgather, topo::kInvalidNode, std::move(done));
}
std::uint64_t Collective::allreduce(DoneFn done) {
  return start_phase(OpKind::kAllreduce, topo::kInvalidNode, std::move(done));
}
std::uint64_t Collective::all_to_all_broadcast(DoneFn done) {
  return start_phase(OpKind::kAllToAllBroadcast, topo::kInvalidNode, std::move(done));
}

std::uint64_t Collective::start_phase(OpKind op, topo::NodeId broadcast_root, DoneFn done) {
  if (phase_.active) {
    throw std::logic_error("Collective: a phase is already running (op " +
                           std::string(to_string(phase_.op)) + ")");
  }

  Phase p;
  p.op = op;
  p.id = next_phase_++;
  p.roster = groups_->view(group_).members;
  p.started_at = groups_->service().scheduler().now();
  const std::size_t m = p.roster.size();
  p.alive = Bitset(m);
  for (std::size_t r = 0; r < m; ++r) p.alive.set(r);
  p.done_fn = std::move(done);
  p.at_start = stats_;

  const auto add_task = [&p, m](std::uint32_t root, bool reduced) {
    ChunkTask t;
    t.root = root;
    t.reduced = reduced;
    t.done = Bitset(m);
    t.covered = Bitset(m);
    if (reduced) {
      t.done.set(root);  // a gather root holds its own data from the start
    } else {
      t.contribs = Bitset(m);
      t.contrib_covered = Bitset(m);
      t.contrib_issued = Bitset(m);
      t.contribs.set(root);  // the owner's own contribution is local
    }
    p.tasks.push_back(std::move(t));
  };

  switch (op) {
    case OpKind::kBroadcast: {
      const std::size_t r0 =
          std::lower_bound(p.roster.begin(), p.roster.end(), broadcast_root) -
          p.roster.begin();
      if (r0 >= m || p.roster[r0] != broadcast_root) {
        throw std::invalid_argument("Collective::broadcast: root " +
                                    std::to_string(broadcast_root) +
                                    " is not a group member");
      }
      for (std::uint32_t c = 0; c < config_.chunks; ++c)
        add_task(static_cast<std::uint32_t>(r0), true);
      break;
    }
    case OpKind::kBarrier:
      // One arrival token per member; chunking is meaningless for an
      // empty payload.
      for (std::uint32_t r = 0; r < m; ++r) add_task(r, true);
      break;
    case OpKind::kAllgather:
    case OpKind::kAllToAllBroadcast:
      for (std::uint32_t r = 0; r < m; ++r)
        for (std::uint32_t c = 0; c < config_.chunks; ++c) add_task(r, true);
      break;
    case OpKind::kAllreduce:
      // Chunk c is owned by rank c % m; an empty roster owns no chunks.
      for (std::uint32_t c = 0; m != 0 && c < config_.chunks; ++c) {
        add_task(static_cast<std::uint32_t>(c % m), false);
      }
      break;
  }

  p.observed.assign(m, Bitset(p.tasks.size()));
  // Gather roots observe their own chunks without traffic.
  for (std::size_t i = 0; i < p.tasks.size(); ++i) {
    if (p.tasks[i].reduced) p.observed[p.tasks[i].root].set(i);
  }

  p.active = true;
  phase_ = std::move(p);
  stats_.phases_started++;
  if (metrics_.active()) metrics_.phases_started->inc();

  step_all(false);
  check_complete();
  return phase_.id;
}

std::size_t Collective::rank_of(topo::NodeId node) const {
  const auto it = std::lower_bound(phase_.roster.begin(), phase_.roster.end(), node);
  if (it == phase_.roster.end() || *it != node) return npos;
  return static_cast<std::size_t>(it - phase_.roster.begin());
}

std::size_t Collective::lowest_live_holder(const Bitset& done) const {
  for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
    if (phase_.alive.test(r) && done.test(r)) return r;
  }
  return npos;
}

std::size_t Collective::lowest_live() const {
  for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
    if (phase_.alive.test(r)) return r;
  }
  return npos;
}

void Collective::send_chunk(std::uint32_t src, std::vector<std::uint32_t> targets,
                            MsgTag tag, bool first_issue) {
  const svc::MembershipView& view = groups_->view(group_);
  const topo::NodeId src_node = phase_.roster[src];
  // A source or target that already left the current view cannot be
  // addressed; the view-settled restart re-roots / waives it.
  if (!view.contains(src_node)) return;
  std::vector<topo::NodeId> dest_nodes;
  std::vector<std::uint32_t> live_targets;
  dest_nodes.reserve(targets.size());
  live_targets.reserve(targets.size());
  for (const std::uint32_t r : targets) {
    const topo::NodeId node = phase_.roster[r];
    if (node != src_node && view.contains(node)) {
      dest_nodes.push_back(node);
      live_targets.push_back(r);
    }
  }
  if (dest_nodes.empty()) return;

  // Mark coverage before the send: reliable multicast may deliver and
  // report synchronously inside send_to.
  ChunkTask& t = phase_.tasks[tag.task];
  if (tag.is_contribution) {
    t.contrib_covered.set(tag.contributor);
  } else {
    for (const std::uint32_t r : live_targets) t.covered.set(r);
  }

  if (first_issue) {
    stats_.chunks_sent++;
    if (metrics_.active()) metrics_.chunks_sent->inc();
  } else {
    stats_.chunks_reissued++;
    if (metrics_.active()) metrics_.chunks_reissued->inc();
  }

  const std::uint64_t pid = phase_.id;
  const MsgTag sent_tag = tag;
  const svc::SeqNum seq = groups_->send_to(
      group_, src_node, std::move(dest_nodes),
      [this, pid, sent_tag, live_targets](const svc::GroupSendReport& report) {
        if (!phase_.active || phase_.id != pid) {
          stats_.stale_discards++;
          if (metrics_.active()) metrics_.stale_discards->inc();
          return;
        }
        if (sent_tag.is_contribution) {
          contribution_report(sent_tag.task, sent_tag.gen, sent_tag.contributor, report);
        } else {
          dissemination_report(sent_tag.task, sent_tag.gen, live_targets, report);
        }
      });
  seq_tags_.insert_or_assign(std::make_pair(src_node, seq), sent_tag);

  // Replay deliveries that raced ahead of the tag registration.
  if (!early_.empty()) {
    auto pending = std::move(early_);
    early_.clear();
    for (auto& [key, receiver] : pending) {
      const auto it = seq_tags_.find(key);
      if (it == seq_tags_.end()) {
        early_.push_back({key, receiver});
      } else {
        apply_observation(it->second, receiver);
      }
    }
  }
}

void Collective::on_delivery(topo::NodeId receiver, topo::NodeId sender,
                             svc::SeqNum seq) {
  const auto it = seq_tags_.find(std::make_pair(sender, seq));
  if (it == seq_tags_.end()) {
    // Either an application send we never tagged, or our own send whose
    // seq is not yet known (synchronous delivery inside send_to); buffer
    // and retry after the send returns.
    if (early_.size() < 4096) early_.push_back({{sender, seq}, receiver});
    return;
  }
  apply_observation(it->second, receiver);
}

void Collective::apply_observation(const MsgTag& tag, topo::NodeId receiver) {
  if (!phase_.active || tag.phase != phase_.id) {
    stats_.stale_discards++;
    if (metrics_.active()) metrics_.stale_discards->inc();
    return;
  }
  if (tag.is_contribution) return;  // owner-side application is report-driven
  const std::size_t rank = rank_of(receiver);
  if (rank == npos) return;
  if (tag.gen != phase_.tasks[tag.task].gen) {  // gather tasks stay at generation 0
    stats_.stale_discards++;
    if (metrics_.active()) metrics_.stale_discards->inc();
    return;
  }
  phase_.observed[rank].set(tag.task);
}

void Collective::count_delivered(const svc::GroupSendReport& report, Bitset& done) {
  for (const auto& d : report.destinations) {
    if (d.outcome != svc::GroupOutcome::kDeliveredInView) continue;
    const std::size_t rank = rank_of(d.node);
    if (rank == npos) continue;
    done.set(rank);
    stats_.chunks_delivered++;
    if (metrics_.active()) metrics_.chunks_delivered->inc();
  }
}

namespace {
bool any_failed(const svc::GroupSendReport& report) {
  for (const auto& d : report.destinations) {
    if (d.outcome != svc::GroupOutcome::kDeliveredInView) return true;
  }
  return false;
}
}  // namespace

void Collective::defer_step(std::uint32_t idx) {
  const std::uint64_t pid = phase_.id;
  std::weak_ptr<const bool> alive = alive_token_;
  groups_->service().scheduler().schedule_in(
      config_.reissue_backoff_s, [this, alive, pid, idx] {
        if (alive.expired()) return;
        if (!phase_.active || phase_.id != pid) return;
        if (!phase_.tasks[idx].voided) step(idx);
        check_complete();
      });
}

void Collective::contribution_report(std::uint32_t idx, std::uint32_t gen,
                                     std::uint32_t contributor,
                                     const svc::GroupSendReport& report) {
  ChunkTask& t = phase_.tasks[idx];
  if (gen != t.gen) {
    // Superseded ownership generation: the re-owned chunk restarted its
    // reduction from scratch, so this outcome must not touch it.
    stats_.stale_discards++;
    if (metrics_.active()) metrics_.stale_discards->inc();
    return;
  }
  t.contrib_covered.reset(contributor);
  bool delivered = false;
  for (const auto& d : report.destinations) {
    delivered |= d.outcome == svc::GroupOutcome::kDeliveredInView;
  }
  if (delivered) {
    if (t.contribs.test(contributor)) {
      // Applying the same (generation, contributor) twice would double the
      // contribution in a real reduction; the issue guards make this
      // unreachable and tests pin the counter to zero.
      stats_.double_applies++;
      if (metrics_.active()) metrics_.double_applies->inc();
    } else {
      t.contribs.set(contributor);
      stats_.contributions_applied++;
      stats_.chunks_delivered++;
      if (metrics_.active()) {
        metrics_.contributions_applied->inc();
        metrics_.chunks_delivered->inc();
      }
    }
  }
  if (!t.voided) {
    if (delivered) {
      step(idx);
    } else {
      defer_step(idx);
    }
  }
  check_complete();
}

void Collective::dissemination_report(std::uint32_t idx, std::uint32_t gen,
                                      const std::vector<std::uint32_t>& targets,
                                      const svc::GroupSendReport& report) {
  ChunkTask& t = phase_.tasks[idx];
  if (gen != t.gen) {
    stats_.stale_discards++;
    if (metrics_.active()) metrics_.stale_discards->inc();
    return;
  }
  count_delivered(report, t.done);
  for (const std::uint32_t r : targets) t.covered.reset(r);
  if (!t.voided) {
    // A failed destination may have failed synchronously inside the send;
    // re-stepping inline would recurse, so back off through the scheduler.
    if (any_failed(report)) {
      defer_step(idx);
    } else {
      step(idx);
    }
  }
  check_complete();
}

void Collective::void_chunk(std::uint32_t idx) {
  phase_.tasks[idx].voided = true;
  stats_.chunks_voided++;
  if (metrics_.active()) metrics_.chunks_voided->inc();
}

void Collective::step(std::uint32_t idx) {
  if (!phase_.active) return;
  const bool reduce = phase_.op == OpKind::kAllreduce;
  if (phase_.tasks[idx].voided || (reduce && !step_reduce(idx))) return;
  ChunkTask& t = phase_.tasks[idx];

  std::vector<std::uint32_t> needed;
  for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
    if (phase_.alive.test(r) && !t.done.test(r) && !t.covered.test(r)) {
      needed.push_back(static_cast<std::uint32_t>(r));
    }
  }
  if (needed.empty()) return;

  // A reduced allreduce chunk goes out from its owner.  A gather chunk
  // goes out from its lowest live holder: the root until the chunk reaches
  // a lower rank, and any member it reached once the root is gone (same
  // data, so the relayed copy is identical).
  const std::size_t src = reduce ? t.root : lowest_live_holder(t.done);
  if (src == npos) {
    void_chunk(idx);
    return;
  }
  if (t.issued) {
    if (t.reissues >= config_.max_reissues_per_chunk) {
      void_chunk(idx);
      return;
    }
    t.reissues++;
  }
  const bool first = !t.issued;
  t.issued = true;
  send_chunk(static_cast<std::uint32_t>(src), std::move(needed),
             MsgTag{phase_.id, false, idx, t.gen, 0}, first);
}

bool Collective::step_reduce(std::uint32_t idx) {
  const std::uint64_t pid = phase_.id;
  ChunkTask& t = phase_.tasks[idx];

  // Ownership repair first.  A reduced chunk re-roots to a live holder
  // (identical value); an unreduced or holder-less chunk restarts its
  // reduction under a new owner and generation, discarding in-flight
  // state wholesale via the generation check.
  if (!phase_.alive.test(t.root)) {
    const std::size_t holder = t.reduced ? lowest_live_holder(t.done) : npos;
    if (holder != npos) {
      t.root = static_cast<std::uint32_t>(holder);
    } else {
      const std::size_t fresh = lowest_live();
      if (fresh == npos) return false;  // nobody left; completion is trivial
      t.root = static_cast<std::uint32_t>(fresh);
      t.gen++;
      t.reduced = false;
      t.contribs.clear();
      t.contrib_covered.clear();
      t.done.clear();
      t.covered.clear();
      t.contribs.set(t.root);
      for (auto& bits : phase_.observed) bits.reset(idx);
    }
  }
  if (t.reduced) return true;

  // Reduce-scatter: every live contributor ships its chunk contribution
  // to the owner, exactly once per generation.
  for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
    if (r == t.root || !phase_.alive.test(r)) continue;
    if (t.contribs.test(r) || t.contrib_covered.test(r)) continue;
    const bool first = !t.contrib_issued.test(r);
    if (!first) {
      // Contribution re-sends draw on the same re-issue budget as the
      // dissemination, so a permanently unreachable owner voids the chunk
      // instead of retrying forever.
      if (t.reissues >= config_.max_reissues_per_chunk) {
        void_chunk(idx);
        return false;
      }
      t.reissues++;
    }
    t.contrib_issued.set(r);
    send_chunk(static_cast<std::uint32_t>(r), {t.root},
               MsgTag{phase_.id, true, idx, t.gen, static_cast<std::uint32_t>(r)}, first);
    if (!phase_.active || phase_.id != pid) return false;  // completed re-entrantly
  }
  for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
    if (phase_.alive.test(r) && !t.contribs.test(r)) return false;
  }
  t.reduced = true;
  t.done.clear();
  t.done.set(t.root);
  phase_.observed[t.root].set(idx);
  return true;
}

void Collective::step_all(bool counting_restart) {
  const std::uint64_t pid = phase_.id;
  for (std::uint32_t i = 0; i < phase_.tasks.size(); ++i) {
    if (!phase_.active || phase_.id != pid) return;
    const ChunkTask& t = phase_.tasks[i];
    if (counting_restart && !t.voided && t.reduced) {
      bool complete = true;
      for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
        if (phase_.alive.test(r) && !t.done.test(r)) {
          complete = false;
          break;
        }
      }
      if (complete) {
        // Stable in the old view -> never re-sent.
        stats_.sends_suppressed++;
        if (metrics_.active()) metrics_.sends_suppressed->inc();
        continue;
      }
    }
    step(i);
  }
}

void Collective::on_view_settled(const svc::MembershipView& view) {
  if (!phase_.active) return;
  // Sticky death: a roster member missing from ANY view installed during
  // the phase stays excluded, so an evict + rejoin (a joiner) defers to
  // the next phase's fresh roster.
  for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
    if (phase_.alive.test(r) && !view.contains(phase_.roster[r])) {
      phase_.alive.reset(r);
    }
  }
  stats_.restarts++;
  if (metrics_.active()) metrics_.restarts->inc();

  const std::uint64_t before = stats_.chunks_reissued;
  step_all(true);
  if (metrics_.active()) {
    metrics_.chunks_reissued_per_restart->record(
        static_cast<double>(stats_.chunks_reissued - before));
  }
  check_complete();
}

void Collective::check_complete() {
  if (!phase_.active) return;
  for (const ChunkTask& t : phase_.tasks) {
    if (t.voided) continue;
    if (!t.reduced) return;
    for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
      if (phase_.alive.test(r) && !t.done.test(r)) return;
    }
  }
  finish_phase();
}

void Collective::finish_phase() {
  phase_.active = false;

  PhaseResult result;
  result.op = phase_.op;
  result.phase_id = phase_.id;
  result.completed = true;  // every recoverable chunk reached every survivor
  result.started_at_s = phase_.started_at;
  result.completed_at_s = groups_->service().scheduler().now();
  result.roster = phase_.roster;
  for (std::size_t r = 0; r < phase_.alive.size(); ++r) {
    if (phase_.alive.test(r)) result.survivors.push_back(phase_.roster[r]);
  }
  result.chunks_sent = stats_.chunks_sent - phase_.at_start.chunks_sent;
  result.chunks_reissued = stats_.chunks_reissued - phase_.at_start.chunks_reissued;
  result.restarts = stats_.restarts - phase_.at_start.restarts;
  result.chunks_voided = stats_.chunks_voided - phase_.at_start.chunks_voided;
  result.degraded = result.chunks_voided != 0;

  stats_.phases_completed++;
  if (metrics_.active()) {
    metrics_.phases_completed->inc();
    metrics_.phase_latency_s->record(result.completed_at_s - result.started_at_s);
  }

  seq_tags_.clear();
  early_.clear();

  if (phase_.done_fn) {
    // Defer past the current event so the callback can safely start the
    // next phase while report/step frames for this one unwind.
    DoneFn fn = std::move(phase_.done_fn);
    phase_.done_fn = {};
    groups_->service().scheduler().schedule_in(
        0.0, [fn = std::move(fn), result] { fn(result); });
  }
}

std::size_t Collective::observed_chunks(topo::NodeId member) const {
  const std::size_t rank = rank_of(member);
  if (rank == npos || rank >= phase_.observed.size()) return 0;
  return phase_.observed[rank].count();
}

bool Collective::observed_all(topo::NodeId member) const {
  const std::size_t rank = rank_of(member);
  if (rank == npos || rank >= phase_.observed.size()) return false;
  const Bitset& bits = phase_.observed[rank];
  for (std::size_t i = 0; i < phase_.tasks.size(); ++i) {
    if (!phase_.tasks[i].voided && !bits.test(i)) return false;
  }
  return true;
}

void Collective::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.phases_started = &registry->counter("coll.phases_started");
  metrics_.phases_completed = &registry->counter("coll.phases_completed");
  metrics_.chunks_sent = &registry->counter("coll.chunks_sent");
  metrics_.chunks_reissued = &registry->counter("coll.chunks_reissued");
  metrics_.chunks_delivered = &registry->counter("coll.chunks_delivered");
  metrics_.chunks_voided = &registry->counter("coll.chunks_voided");
  metrics_.restarts = &registry->counter("coll.restarts");
  metrics_.sends_suppressed = &registry->counter("coll.sends_suppressed");
  metrics_.stale_discards = &registry->counter("coll.stale_discards");
  metrics_.contributions_applied = &registry->counter("coll.contributions_applied");
  metrics_.double_applies = &registry->counter("coll.double_applies");
  metrics_.phase_latency_s = &registry->histogram("coll.phase_latency_s");
  metrics_.chunks_reissued_per_restart =
      &registry->histogram("coll.chunks_reissued_per_restart");
}

}  // namespace mcnet::coll
