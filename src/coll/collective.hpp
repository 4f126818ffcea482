// Collective phases over the group layer (ROADMAP item 2): allgather,
// allreduce, broadcast, barrier, and all-to-all broadcast composed from
// simultaneous multicasts inside one membership view, in the style of
// ns3-roce's AgFlowMcastPhase (SNIPPETS.md): many roots multicast
// concurrently, transfers are chunked, and per-member completion bitmaps
// drive a phase state machine.
//
// Model
//  * A phase freezes its ROSTER: the members of the group view at phase
//    start, in sorted order; a member's index in that vector is its RANK.
//    Members evicted during the phase are excluded from then on (sticky:
//    an evict + rejoin does not resurface in this phase -- joiners defer
//    to the next phase, which snapshots a fresh roster).
//  * Data is abstract: holding a chunk is a bit, not bytes.  Every op is
//    a list of chunk tasks, each disseminated from one holder to every
//    live rank; the phase completes when every live rank's completion
//    bitmap covers every recoverable task.  Gather-style ops (broadcast,
//    barrier, allgather, all-to-all broadcast) make one task per (root,
//    chunk), held by its root from the start.  Allreduce makes one task
//    per chunk that first runs reduce-scatter (each contributor sends its
//    per-chunk contribution to the chunk's owner) and is then
//    disseminated like a gather task; contributions are applied exactly
//    once per (chunk generation, contributor).
//  * The state machine is driven by GroupSendReport outcomes: a
//    kDeliveredInView destination sets its completion bit; terminal
//    failures clear the chunk's covered bits so the next step re-issues.
//    View-change-aware restart rides GroupService's view-settled hook --
//    the point where evicted destinations of in-flight sends hold
//    terminal outcomes -- and deterministically re-issues ONLY chunks not
//    yet stable in the new view (per destination: not done, not covered
//    by a still-live send, still alive).  Chunks whose every live target
//    already holds them are never re-sent.
//  * Sources and fault recovery: every (re)issue of a gather chunk goes
//    out from the lowest live rank holding it, which may be a lower rank
//    than a live root once the chunk reached one (same value, so every
//    member converges on one result).  A reduced allreduce chunk goes out
//    from its owner; a dead owner hands a reduced chunk to the lowest
//    live holder, and an unreduced chunk demotes to reduce-scatter under
//    a new owner with a bumped generation (stale-generation deliveries
//    and reports are discarded wholesale).  A chunk no live member holds
//    is voided (the phase completes degraded).
//
// See docs/COLLECTIVES.md for the phase-machine and restart walkthrough.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/flat_map.hpp"
#include "service/group_service.hpp"

namespace mcnet::obs {
class Gauge;
class Histogram;
}

namespace mcnet::coll {

/// Small dynamic bitset over roster ranks / chunk tasks.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t n) : words_((n + 63) / 64, 0), size_(n) {}

  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

enum class OpKind : std::uint8_t {
  kBroadcast,
  kBarrier,
  kAllgather,
  kAllreduce,
  kAllToAllBroadcast,
};

[[nodiscard]] const char* to_string(OpKind op);

struct CollConfig {
  /// Chunks per root: each chunk is one multicast, so this is the
  /// concurrent-multicast fan-out per root inside a phase.  Barrier
  /// always uses one token per member regardless.
  std::uint32_t chunks = 4;
  /// A chunk re-issued more than this many times is voided (the phase
  /// then completes degraded instead of wedging on a black-holed route).
  std::uint32_t max_reissues_per_chunk = 64;
  /// Delay before re-stepping a chunk whose send reported a failed
  /// destination.  A partitioned target fails synchronously inside the
  /// send, so an immediate re-step would recurse on the same stack; the
  /// backoff breaks that cycle and gives the failure detector time to
  /// evict the dead peer before the re-issue cap voids the chunk.
  double reissue_backoff_s = 100e-6;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Final summary of one phase (fires exactly once, via the DoneFn).
struct PhaseResult {
  OpKind op = OpKind::kBarrier;
  std::uint64_t phase_id = 0;
  /// Every recoverable chunk reached every surviving roster member.
  bool completed = false;
  /// Some chunk was voided (unrecoverable root death or re-issue cap).
  bool degraded = false;
  double started_at_s = 0.0;
  double completed_at_s = 0.0;
  std::vector<topo::NodeId> roster;     // phase membership at start (sorted)
  std::vector<topo::NodeId> survivors;  // roster members still live at the end
  // The phase's change in Collective::stats().
  std::uint64_t chunks_sent = 0;      // multicasts issued (first sends)
  std::uint64_t chunks_reissued = 0;  // re-sends (restarts, drops, re-roots)
  std::uint64_t restarts = 0;         // view-settled restart passes
  std::uint64_t chunks_voided = 0;
};

/// Collective phase engine bound to one group of a GroupService.  One
/// phase runs at a time (start calls throw while busy()); run the
/// scheduler to drive it to its DoneFn.
class Collective {
 public:
  using DoneFn = std::function<void(const PhaseResult&)>;

  /// Hooks onto the service's delivery and view-settled seams; unhooks in
  /// the destructor.  The group must exist.
  Collective(svc::GroupService& groups, svc::GroupId group, CollConfig config = {});
  ~Collective();
  Collective(const Collective&) = delete;
  Collective& operator=(const Collective&) = delete;

  /// Start a phase; returns its phase id.  `root` must be a current
  /// member for broadcast.  Throws std::logic_error while busy().
  std::uint64_t broadcast(topo::NodeId root, DoneFn done = {});
  std::uint64_t barrier(DoneFn done = {});
  std::uint64_t allgather(DoneFn done = {});
  std::uint64_t allreduce(DoneFn done = {});
  /// Same communication pattern as allgather (every root's chunks to all
  /// members) -- kept as its own op so workloads and metrics can speak
  /// the paper's language; the Jung & Sakho step bound for it lives in
  /// the coll/atab.hpp step model.
  std::uint64_t all_to_all_broadcast(DoneFn done = {});

  [[nodiscard]] bool busy() const { return phase_.active; }

  /// Receiver-observed completion bitmap population for `member` in the
  /// current/most recent phase: chunks whose in-order delivery the member
  /// actually heard (gather ops count (root, chunk) tasks; allreduce
  /// counts current-generation reduced chunks).
  [[nodiscard]] std::size_t observed_chunks(topo::NodeId member) const;
  /// True when `member` observed every recoverable chunk of the phase.
  [[nodiscard]] bool observed_all(topo::NodeId member) const;

  struct Stats {
    std::uint64_t phases_started = 0;
    std::uint64_t phases_completed = 0;
    std::uint64_t chunks_sent = 0;
    std::uint64_t chunks_reissued = 0;
    std::uint64_t chunks_delivered = 0;  // kDeliveredInView destination outcomes
    std::uint64_t chunks_voided = 0;
    std::uint64_t restarts = 0;           // view-settled restart passes
    std::uint64_t sends_suppressed = 0;   // restart found chunk already stable
    std::uint64_t stale_discards = 0;     // stale phase/generation deliveries+reports
    std::uint64_t contributions_applied = 0;
    std::uint64_t double_applies = 0;     // MUST stay 0 (see tests)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Register coll.* instruments on `registry` (nullptr detaches):
  /// counters mirroring Stats, histograms coll.phase_latency_s and
  /// coll.chunks_reissued_per_restart.
  void set_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] svc::GroupId group() const { return group_; }
  [[nodiscard]] const CollConfig& config() const { return config_; }

 private:
  /// One chunk disseminated to every live rank.  A gather task starts
  /// reduced, held by its root; an allreduce task first reduces into its
  /// owner `root`, then disseminates like a gather task.
  struct ChunkTask {
    std::uint32_t root = 0;  // roster rank: gather root / allreduce owner
    std::uint32_t gen = 0;   // bumped when an unreduced chunk re-owns (allreduce)
    bool reduced = false;
    Bitset contribs;         // contributor ranks applied (exactly once per gen)
    Bitset contrib_covered;  // contributors with an outstanding send this gen
    Bitset contrib_issued;   // contributors that ever sent (reissue accounting)
    Bitset done;             // ranks holding the (reduced) chunk
    Bitset covered;          // ranks targeted by an outstanding send
    std::uint32_t reissues = 0;
    bool issued = false;
    bool voided = false;
  };

  struct Phase {
    OpKind op = OpKind::kBarrier;
    std::uint64_t id = 0;
    bool active = false;
    double started_at = 0.0;
    std::vector<topo::NodeId> roster;  // sorted; index = rank
    Bitset alive;                      // sticky-dead ranks cleared forever
    std::vector<ChunkTask> tasks;
    /// rank -> observed-chunk bitmap over task indices.
    std::vector<Bitset> observed;
    DoneFn done_fn;
    Stats at_start;  // stats_ when the phase started (PhaseResult counts)
  };

  /// Routes an in-order delivery (sender, seq) back to its chunk.
  struct MsgTag {
    std::uint64_t phase = 0;
    bool is_contribution = false;  // allreduce reduce-scatter leg
    std::uint32_t task = 0;        // task index
    std::uint32_t gen = 0;
    std::uint32_t contributor = 0;  // rank (contribution sends only)
  };

  std::uint64_t start_phase(OpKind op, topo::NodeId broadcast_root, DoneFn done);
  void on_delivery(topo::NodeId receiver, topo::NodeId sender, svc::SeqNum seq);
  void apply_observation(const MsgTag& tag, topo::NodeId receiver);
  void on_view_settled(const svc::MembershipView& view);
  /// Deterministic full pass: step every chunk in (stage, root, chunk)
  /// order, issuing exactly the sends whose targets are live, not done,
  /// and not covered.
  void step_all(bool counting_restart);
  /// Step one task: (allreduce) its reduce-scatter stage, then multicast
  /// the chunk to every live rank not done and not covered.
  void step(std::uint32_t idx);
  /// Allreduce stage of step(): ownership repair and contribution sends.
  /// True once the chunk is reduced and the phase is still running.
  bool step_reduce(std::uint32_t idx);
  void contribution_report(std::uint32_t idx, std::uint32_t gen, std::uint32_t contributor,
                           const svc::GroupSendReport& report);
  void dissemination_report(std::uint32_t idx, std::uint32_t gen,
                            const std::vector<std::uint32_t>& targets,
                            const svc::GroupSendReport& report);
  /// Issue one multicast of one chunk from `src` to `targets` (ranks).
  /// Skips ranks that left the current view (restart will catch them).
  void send_chunk(std::uint32_t src, std::vector<std::uint32_t> targets, MsgTag tag,
                  bool first_issue);
  /// Re-step `idx` after reissue_backoff_s (used when a report carried a
  /// failed destination; stepping inline would recurse on synchronous
  /// failures).  No-op by the time it fires if the phase moved on.
  void defer_step(std::uint32_t idx);
  void void_chunk(std::uint32_t idx);
  void check_complete();
  void finish_phase();

  [[nodiscard]] std::size_t rank_of(topo::NodeId node) const;  // npos when absent
  [[nodiscard]] std::size_t lowest_live_holder(const Bitset& done) const;
  [[nodiscard]] std::size_t lowest_live() const;
  void count_delivered(const svc::GroupSendReport& report, Bitset& done);

  struct Metrics {
    obs::Counter* phases_started = nullptr;
    obs::Counter* phases_completed = nullptr;
    obs::Counter* chunks_sent = nullptr;
    obs::Counter* chunks_reissued = nullptr;
    obs::Counter* chunks_delivered = nullptr;
    obs::Counter* chunks_voided = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Counter* sends_suppressed = nullptr;
    obs::Counter* stale_discards = nullptr;
    obs::Counter* contributions_applied = nullptr;
    obs::Counter* double_applies = nullptr;
    obs::Histogram* phase_latency_s = nullptr;
    obs::Histogram* chunks_reissued_per_restart = nullptr;

    [[nodiscard]] bool active() const { return phases_started != nullptr; }
  };

  svc::GroupService* groups_;
  svc::GroupId group_;
  CollConfig config_;
  std::uint64_t delivery_hook_ = 0;
  std::uint64_t view_hook_ = 0;
  std::uint64_t next_phase_ = 1;
  Phase phase_;
  /// (sender node, seq) -> chunk routing for receiver-side observation.
  util::FlatMap<std::pair<topo::NodeId, svc::SeqNum>, MsgTag> seq_tags_;
  /// Deliveries that raced ahead of their seq_tags_ entry (reliable
  /// multicast can deliver synchronously inside send_to, before the
  /// returned seq is known); drained right after each send.
  std::vector<std::pair<std::pair<topo::NodeId, svc::SeqNum>, topo::NodeId>> early_;
  /// Liveness token for deferred scheduler events (they must become no-ops
  /// if this Collective is destroyed before the scheduler drains).
  std::shared_ptr<const bool> alive_token_;
  Stats stats_;
  Metrics metrics_;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

}  // namespace mcnet::coll
