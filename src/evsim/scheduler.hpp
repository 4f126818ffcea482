// Event-driven simulation kernel: the substrate standing in for the CSIM
// package the paper's simulations were written with.
//
// This is the rebuilt hot path (see docs/KERNEL.md):
//
//   * Event records live in address-stable slab arenas and carry their
//     callable inline (EventFn, no std::function / no per-event heap
//     allocation on the hot path).
//   * The pending set is a calendar queue -- an array of time-bucketed
//     intrusive lists covering a sliding window, O(1) amortized insert and
//     extract at wormhole timescales -- with a binary-heap overflow band
//     for sparse far-future events (timeouts, fault plans), so a 1 s
//     timeout never degrades the 50 ns flit traffic.
//   * Beside the calendar, a FIFO lane (a ring of event slots) takes each
//     event due within a registered lane delay of now() and no earlier
//     than the lane's newest event -- the worm simulator's one-flit-time
//     hops.  Dispatch takes whichever of the lane's head and the
//     calendar's (cached) head comes first by (time, schedule order).
//   * schedule_at/schedule_in return an EventId cancellation handle;
//     cancel() destroys the callable immediately (releasing its captures)
//     and the carcass is discarded lazily when its bucket drains or it
//     reaches the lane's head.
//
// Determinism rules (pinned by the Kernel test suites and the golden
// replay):
//   * Dispatch order is strict (time, schedule order): ties at one
//     timestamp run FIFO in the order they were scheduled, including
//     events scheduled from inside a running handler at the current time.
//   * The calendar geometry (bucket count, width, window position) and
//     the lane's admission never affect dispatch order -- they are
//     performance knobs only.
//
// Exception contract: if a handler throws (from step/run/run_until), the
// throwing event counts as dispatched, its callable is destroyed, the
// clock rests at the event's timestamp (run_until does NOT advance to
// t_end), every other pending event stays queued, and the scheduler
// remains fully usable.  The exception propagates to the caller.
//
// Time-arithmetic clamp: schedule_at accepts times up to a few ulp in the
// past (derived-time arithmetic like `(depth + l - 1 - p) * tau` can
// undershoot now() by sub-ulp amounts) and clamps them to now(); genuinely
// past times still throw std::invalid_argument.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "evsim/event_fn.hpp"

namespace mcnet::evsim {

/// Simulated time in seconds.
using SimTime = double;

/// Cancellation handle for a scheduled event.  Null by default; a handle
/// stays safe to cancel() forever (slot reuse is generation-checked), it
/// just becomes a no-op once the event has fired or been cancelled.
class EventId {
 public:
  EventId() = default;
  [[nodiscard]] bool valid() const { return slot_ != kNull; }
  explicit operator bool() const { return valid(); }

 private:
  friend class Scheduler;
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNull;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time (the timestamp of the last dispatched event).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `f` at absolute time `t` (>= now(), modulo the ulp clamp
  /// documented above).  Returns a cancellation handle.
  template <typename F>
  EventId schedule_at(SimTime t, F&& f) {
    t = admit_time(t);
    // Lane admission: due within the lane delay and no earlier than the
    // lane's newest event, so the ring stays sorted by (t, seq).
    const bool to_lane = t <= now_ + lane_horizon_ && t >= lane_tail_t_;
    // Start the destination bucket's line towards the core now; the
    // alloc + capture construction below overlaps the fetch.  (For
    // far-future times this prefetches a harmless arbitrary bucket.)
    if (!to_lane) {
      __builtin_prefetch(&buckets_[static_cast<std::size_t>(bucket_of(t) & mask_)], 1);
    }
    const std::uint32_t slot = alloc_slot();
    Event& ev = event(slot);
    ev.t = t;
    ev.seq = next_seq_++;
    ev.fn.emplace(std::forward<F>(f));
    ev.state = State::kQueued;
    const EventId id(slot, ev.gen);
    ++live_;
    if (to_lane) {
      ev.in_lane = true;
      lane_push(slot, t);
      return id;
    }
    enqueue(slot, t);
    if (live_ - lane_live_ > (mask_ + 1) / 2 && mask_ + 1 < kMaxBuckets) grow();
    if (overloaded_) maybe_overload_rebuild();
    return id;
  }

  /// Schedule `f` after a delay of `dt` (must be >= 0, modulo ulp clamp).
  template <typename F>
  EventId schedule_in(SimTime dt, F&& f) {
    return schedule_at(now_ + dt, std::forward<F>(f));
  }

  /// Cancel a pending event: its callable is destroyed immediately (never
  /// runs) and the event will not count as dispatched.  Returns true when
  /// the handle named a still-pending event; false for null/fired/
  /// cancelled/stale handles (all safe).
  bool cancel(EventId id);

  /// Dispatch the next event; returns false when the queue is empty.
  bool step();

  /// Dispatch until the queue is empty; returns the number of events run.
  std::uint64_t run();

  /// Dispatch events with timestamps <= `t_end`, then advance the clock to
  /// `t_end`; returns the number of events run.  On a handler throw the
  /// clock stays at the event's time (see the exception contract above).
  std::uint64_t run_until(SimTime t_end);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Scheduled-and-not-yet-fired events (cancelled events excluded).
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }

  /// Calendar geometry, exposed for tests and bench introspection.
  [[nodiscard]] std::size_t num_buckets() const { return mask_ + 1; }
  [[nodiscard]] double bucket_width() const { return width_; }
  [[nodiscard]] std::size_t overflow_size() const { return overflow_.size(); }

  /// Open the FIFO lane for events due within 1.5 x `dt` of now() (half a
  /// `dt` of slack absorbs derived-time arithmetic such as
  /// `t0 + k * dt`).  With several registrations the largest delay wins;
  /// a scheduler nobody registers with dispatches from the calendar only.
  /// The lane never changes dispatch order, only where events wait.
  void register_lane_delay(SimTime dt);
  /// Events dispatched from the lane (a subset of events_dispatched()).
  [[nodiscard]] std::uint64_t lane_dispatched() const { return lane_dispatched_; }

 private:
  enum class State : std::uint8_t { kFree, kQueued, kCancelled, kRunning };

  // Cache-line aligned so the header (t, seq, links) plus the EventFn ops
  // pointer plus the first ~16 bytes of capture -- i.e. everything a
  // dispatch of a typical {this, id} closure touches -- sit in one line.
  struct alignas(64) Event {
    SimTime t = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;  // intrusive bucket list / freelist link
    std::uint32_t gen = 0;      // bumped on slot free; validates EventIds
    State state = State::kFree;
    bool in_overflow = false;  // lives in the overflow heap, not a bucket
    bool in_lane = false;      // lives in the FIFO lane, not the calendar
    EventFn fn;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kSlabShift = 10;  // 1024 events per slab
  static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;
  static constexpr std::uint64_t kMaxBuckets = 1u << 20;
  /// Bucket indices past 2^53 exceed double's contiguous-integer range;
  /// everything beyond is one far-future band in the overflow heap.
  static constexpr double kMaxBucketIndex = 9007199254740992.0;  // 2^53
  static constexpr std::uint64_t kFarFuture = 1ull << 62;

  // --- slab arena -----------------------------------------------------
  [[nodiscard]] Event& event(std::uint32_t i) {
    return slabs_[i >> kSlabShift][i & (kSlabSize - 1)];
  }
  std::uint32_t alloc_slot() {
    if (free_head_ == kNil) return alloc_fresh_slot();
    const std::uint32_t slot = free_head_;
    free_head_ = event(slot).next;
    return slot;
  }
  /// Slow path of alloc_slot: the freelist is empty.
  std::uint32_t alloc_fresh_slot();
  void free_slot(std::uint32_t slot);

  // --- calendar queue -------------------------------------------------
  [[nodiscard]] std::uint64_t bucket_of(SimTime t) const {
    const double b = t * inv_width_;
    if (!(b < kMaxBucketIndex)) return kFarFuture;
    return static_cast<std::uint64_t>(b);
  }
  /// Clamp + validate a schedule time (ulp slack, throw on the past/NaN).
  [[nodiscard]] SimTime admit_time(SimTime t) const {
    return t >= now_ ? t : admit_past(t);  // NaN fails the test: admit_past throws
  }
  [[nodiscard]] SimTime admit_past(SimTime t) const;
  void enqueue(std::uint32_t slot, SimTime t);
  void bucket_insert(std::size_t idx, std::uint32_t slot);
  void overflow_push(std::uint32_t slot);
  std::uint32_t overflow_pop();
  void overflow_sift_down(std::size_t i);
  /// Drop cancelled carcasses from the overflow heap and re-heapify.
  /// Called when carcasses outnumber live overflow events, so a sim that
  /// cancels far-future timeouts en masse (the reliable-delivery pattern)
  /// cannot leak arena slots until the window reaches their timestamps.
  void compact_overflow();
  void refill_from_overflow();
  /// Advance to the next live (non-cancelled) event, discarding carcasses;
  /// returns its slot (still at the head of bucket `cur_`) or kNil.
  std::uint32_t skim();
  /// The next event to dispatch: the earlier by (t, seq) of the lane's
  /// live head and the calendar's head (skimmed only when the cached one
  /// is stale); kNil when nothing is pending.
  std::uint32_t next_event();
  /// Pop `slot` -- next_event()'s answer -- from the lane or the calendar
  /// and run it (exception contract applies).
  void dispatch(std::uint32_t slot);

  // --- FIFO lane -------------------------------------------------------
  void lane_push(std::uint32_t slot, SimTime t) {
    if (lane_size_ == lane_.size()) lane_grow();
    lane_[(lane_head_ + lane_size_) & lane_mask_] = slot;
    ++lane_size_;
    ++lane_live_;
    lane_tail_t_ = t;
  }
  void lane_pop() {
    lane_head_ = (lane_head_ + 1) & lane_mask_;
    // An empty lane admits anything in the window again.
    if (--lane_size_ == 0) lane_tail_t_ = -std::numeric_limits<double>::infinity();
  }
  void lane_grow();
  /// Re-bucket every pending event under a new geometry.  With
  /// `estimate_width` the width argument is replaced by a sample-based
  /// estimate of the pending population's inter-event gap (falls back to
  /// `width` when the sample is too small to trust).
  void rebuild(std::uint64_t nbuckets, double width, bool estimate_width = false);
  void grow();
  void maybe_retune();
  void maybe_overload_rebuild();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;

  std::vector<std::unique_ptr<Event[]>> slabs_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t next_unused_ = 0;

  std::vector<Bucket> buckets_;
  std::uint64_t mask_ = 0;     // buckets_.size() - 1 (power of two)
  double width_ = 1e-6;        // bucket width in seconds (retuned online)
  double inv_width_ = 1e6;
  std::uint64_t win_lo_ = 0;   // first absolute bucket index of the window
  std::uint64_t cur_ = 0;      // scan position (absolute bucket index)
  std::size_t in_window_ = 0;  // events (incl. carcasses) in buckets_
  /// Overflow-band heap entry: the sort key is duplicated here so sifts
  /// and min-peeks walk this contiguous array instead of chasing slab
  /// lines (the slab is only touched when an event actually moves).
  struct OvfEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  std::vector<OvfEntry> overflow_;      // min-heap by (t, seq)
  std::size_t overflow_carcasses_ = 0;  // cancelled events still in overflow_

  // Online width tuning: EWMA of nonzero inter-dispatch gaps.
  double gap_ewma_ = 0.0;
  SimTime last_dispatch_t_ = 0.0;
  std::uint64_t retune_countdown_ = kRetunePeriod;
  static constexpr std::uint64_t kRetunePeriod = 4096;

  // Insert-side overload trigger: a bucket_insert that walks a chain past
  // kOverloadChain flags the queue, and the next schedule_at/skim rebuilds
  // with a sampled width.  Without this, a burst of inserts under a stale
  // width piles everything into a few buckets and sorted insertion goes
  // quadratic long before the dispatch-gap EWMA ever gets a chance to run.
  bool overloaded_ = false;
  std::size_t overload_mark_ = 0;  // calendar population at the last overload rebuild
  static constexpr std::uint32_t kOverloadChain = 16;

  // The calendar's head, kept between dispatches so a lane dispatch does
  // not re-skim.  Valid while cal_known_; kNil then means the calendar is
  // empty.  Invalidated by a calendar dispatch, an earlier calendar
  // insert, cancelling the head, and every rebuild.
  bool cal_known_ = false;
  std::uint32_t cal_head_ = kNil;
  SimTime cal_t_ = 0.0;
  std::uint64_t cal_seq_ = 0;

  // FIFO lane: a power-of-two ring of slots sorted by (t, seq) because
  // admission requires t >= lane_tail_t_ and seq only grows.
  std::vector<std::uint32_t> lane_;
  std::uint32_t lane_mask_ = 0;  // lane_.size() - 1
  std::uint32_t lane_head_ = 0;  // ring index of the oldest entry
  std::uint32_t lane_size_ = 0;  // entries, cancelled carcasses included
  std::size_t lane_live_ = 0;    // live (queued) events in the lane
  SimTime lane_horizon_ = -std::numeric_limits<double>::infinity();
  SimTime lane_tail_t_ = -std::numeric_limits<double>::infinity();  // newest entry's time
  std::uint64_t lane_dispatched_ = 0;
};

}  // namespace mcnet::evsim
