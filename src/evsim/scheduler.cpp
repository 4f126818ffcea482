#include "evsim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mcnet::evsim {

Scheduler::Scheduler() {
  buckets_.assign(256, Bucket{});
  mask_ = buckets_.size() - 1;
}

Scheduler::~Scheduler() = default;

// --- slab arena -------------------------------------------------------

std::uint32_t Scheduler::alloc_fresh_slot() {
  if ((next_unused_ >> kSlabShift) == slabs_.size()) {
    slabs_.emplace_back(new Event[kSlabSize]);
  }
  return next_unused_++;
}

void Scheduler::free_slot(std::uint32_t slot) {
  Event& ev = event(slot);
  ev.fn.destroy();  // idempotent; already destroyed for cancelled events
  ev.state = State::kFree;
  ev.in_overflow = false;
  ev.in_lane = false;
  ++ev.gen;  // invalidate outstanding EventIds for this slot
  ev.next = free_head_;
  free_head_ = slot;
}

// --- time admission ---------------------------------------------------

SimTime Scheduler::admit_past(SimTime t) const {
  // Derived-time arithmetic (e.g. `t0 + (depth + l - 1 - p) * tau`) can
  // undershoot now() by a few ulp; clamp those, reject anything worse.
  const double slack =
      64.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, std::fabs(now_));
  if (t >= now_ - slack) return now_;
  throw std::invalid_argument("cannot schedule into the past");
}

// --- calendar queue ---------------------------------------------------

void Scheduler::bucket_insert(std::size_t idx, std::uint32_t slot) {
  Bucket& bk = buckets_[idx];
  Event& ev = event(slot);
  ev.next = kNil;
  if (bk.head == kNil) {
    bk.head = bk.tail = slot;
    return;
  }
  // Fast path: new events carry the largest seq so far, so append wins
  // whenever the timestamp is not earlier than the tail's.
  Event& tail = event(bk.tail);
  if (ev.t > tail.t || (ev.t == tail.t && ev.seq > tail.seq)) {
    tail.next = slot;
    bk.tail = slot;
    return;
  }
  // Sorted insert by (t, seq) keeps the bucket a ready-to-dispatch run.
  std::uint32_t prev = kNil;
  std::uint32_t cur = bk.head;
  std::uint32_t walked = 0;
  while (cur != kNil) {
    const Event& c = event(cur);
    if (ev.t < c.t || (ev.t == c.t && ev.seq < c.seq)) break;
    prev = cur;
    cur = c.next;
    ++walked;
  }
  if (walked > kOverloadChain) overloaded_ = true;
  ev.next = cur;
  if (prev == kNil) {
    bk.head = slot;
  } else {
    event(prev).next = slot;
  }
  if (cur == kNil) bk.tail = slot;
}

void Scheduler::overflow_push(std::uint32_t slot) {
  Event& ev = event(slot);
  ev.in_overflow = true;
  overflow_.push_back(OvfEntry{ev.t, ev.seq, slot});
  std::size_t i = overflow_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    const OvfEntry& a = overflow_[i];
    const OvfEntry& b = overflow_[parent];
    if (a.t > b.t || (a.t == b.t && a.seq > b.seq)) break;
    std::swap(overflow_[i], overflow_[parent]);
    i = parent;
  }
}

void Scheduler::overflow_sift_down(std::size_t i) {
  const std::size_t n = overflow_.size();
  auto earlier = [](const OvfEntry& a, const OvfEntry& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  };
  for (;;) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t min = i;
    if (l < n && earlier(overflow_[l], overflow_[min])) min = l;
    if (r < n && earlier(overflow_[r], overflow_[min])) min = r;
    if (min == i) break;
    std::swap(overflow_[i], overflow_[min]);
    i = min;
  }
}

std::uint32_t Scheduler::overflow_pop() {
  const std::uint32_t top = overflow_.front().slot;
  event(top).in_overflow = false;
  if (event(top).state == State::kCancelled) --overflow_carcasses_;
  overflow_.front() = overflow_.back();
  overflow_.pop_back();
  overflow_sift_down(0);
  return top;
}

void Scheduler::compact_overflow() {
  std::size_t keep = 0;
  for (const OvfEntry& e : overflow_) {
    if (event(e.slot).state == State::kCancelled) {
      event(e.slot).in_overflow = false;
      free_slot(e.slot);
    } else {
      overflow_[keep++] = e;
    }
  }
  overflow_.resize(keep);
  overflow_carcasses_ = 0;
  // Floyd heap construction: O(n) over the survivors.
  for (std::size_t i = keep / 2; i-- > 0;) overflow_sift_down(i);
}

void Scheduler::enqueue(std::uint32_t slot, SimTime t) {
  // An insert ahead of the cached head (or into an empty calendar) becomes
  // the new head; later inserts leave the cache valid.
  if (cal_known_ && (cal_head_ == kNil || t < cal_t_)) cal_known_ = false;
  std::uint64_t b = bucket_of(t);
  if (b >= win_lo_ + (mask_ + 1)) {
    overflow_push(slot);
    return;
  }
  // A clamped-or-boundary time can map below the scan position; folding it
  // into bucket cur_ is order-safe because buckets hold (t, seq)-sorted
  // runs and every later bucket holds strictly later times (the bucket map
  // is monotone in t).
  if (b < cur_) b = cur_;
  bucket_insert(static_cast<std::size_t>(b & mask_), slot);
  ++in_window_;
}

void Scheduler::refill_from_overflow() {
  while (!overflow_.empty()) {
    const std::uint32_t top = overflow_.front().slot;
    if (event(top).state == State::kCancelled) {
      overflow_pop();
      free_slot(top);
      continue;
    }
    std::uint64_t b = bucket_of(overflow_.front().t);
    if (b >= win_lo_ + (mask_ + 1)) break;
    overflow_pop();
    if (b < cur_) b = cur_;
    bucket_insert(static_cast<std::size_t>(b & mask_), top);
    ++in_window_;
  }
}

std::uint32_t Scheduler::skim() {
  for (;;) {
    if (overloaded_) maybe_overload_rebuild();  // e.g. tripped during refill
    if (in_window_ == 0) {
      while (!overflow_.empty() &&
             event(overflow_.front().slot).state == State::kCancelled) {
        const std::uint32_t s = overflow_pop();
        free_slot(s);
      }
      if (overflow_.empty()) return kNil;
      const SimTime tmin = overflow_.front().t;
      if (!std::isfinite(tmin)) {
        // +inf timestamps have no bucket; feed them through bucket cur_
        // one at a time in heap (t, seq) order.
        const std::uint32_t s = overflow_pop();
        bucket_insert(static_cast<std::size_t>(cur_ & mask_), s);
        ++in_window_;
        continue;
      }
      if (!(tmin * inv_width_ < kMaxBucketIndex)) {
        // The earliest pending time overflows the mappable index range;
        // widen the buckets until it fits, then retry.
        rebuild(mask_ + 1, tmin / (kMaxBucketIndex / 2.0));
        continue;
      }
      // The window is dry: jump it straight to the earliest pending event
      // instead of crawling across empty buckets.
      win_lo_ = cur_ = bucket_of(tmin);
      refill_from_overflow();
      continue;
    }
    while (buckets_[cur_ & mask_].head == kNil) {
      ++cur_;
      if (cur_ == win_lo_ + (mask_ + 1)) {
        win_lo_ = cur_;
        refill_from_overflow();
      }
    }
    const std::uint32_t head = buckets_[cur_ & mask_].head;
    Event& ev = event(head);
    if (ev.state == State::kCancelled) {
      // Lazy carcass removal: the callable died at cancel() time, the
      // record is discarded here.
      Bucket& bk = buckets_[cur_ & mask_];
      bk.head = ev.next;
      if (bk.head == kNil) bk.tail = kNil;
      --in_window_;
      free_slot(head);
      continue;
    }
    return head;
  }
}

// --- FIFO lane --------------------------------------------------------

void Scheduler::register_lane_delay(SimTime dt) {
  if (!(dt > 0.0) || !std::isfinite(dt)) {
    throw std::invalid_argument("lane delay must be positive and finite");
  }
  lane_horizon_ = std::max(lane_horizon_, 1.5 * dt);
}

void Scheduler::lane_grow() {
  // Unroll the ring into the front of a ring twice the size.
  std::vector<std::uint32_t> grown(std::max<std::size_t>(64, 2 * lane_.size()), kNil);
  for (std::uint32_t i = 0; i < lane_size_; ++i) grown[i] = lane_[(lane_head_ + i) & lane_mask_];
  lane_ = std::move(grown);
  lane_mask_ = static_cast<std::uint32_t>(lane_.size() - 1);
  lane_head_ = 0;
}

std::uint32_t Scheduler::next_event() {
  // The lane's live head; cancelled carcasses are freed as they surface.
  std::uint32_t lane = kNil;
  while (lane_size_ != 0) {
    const std::uint32_t s = lane_[lane_head_];
    if (event(s).state != State::kCancelled) {
      lane = s;
      break;
    }
    lane_pop();
    free_slot(s);
  }
  if (!cal_known_) {
    cal_head_ = skim();
    cal_known_ = true;
    if (cal_head_ != kNil) {
      cal_t_ = event(cal_head_).t;
      cal_seq_ = event(cal_head_).seq;
    }
  }
  if (lane == kNil) return cal_head_;
  if (cal_head_ == kNil) return lane;
  // Both structures are (t, seq)-sorted, so the earlier head is the
  // global next event: the merge reproduces calendar-only order exactly.
  const Event& ev = event(lane);
  if (cal_t_ < ev.t || (cal_t_ == ev.t && cal_seq_ < ev.seq)) return cal_head_;
  return lane;
}

void Scheduler::dispatch(std::uint32_t slot) {
  Event& ev = event(slot);
  const bool from_lane = ev.in_lane;
  if (from_lane) {
    lane_pop();
    // The ring successor is the likeliest next dispatch.
    if (lane_size_ != 0) __builtin_prefetch(&event(lane_[lane_head_]));
    --lane_live_;
    ++lane_dispatched_;
  } else {
    cal_known_ = false;  // the cached head is leaving the calendar
    Bucket& bk = buckets_[cur_ & mask_];
    bk.head = ev.next;
    if (bk.head == kNil) {
      bk.tail = kNil;
      // The next dispatch comes from a later bucket; probe a few ahead (the
      // bucket array is contiguous, so this is ~one extra cache line) and
      // start their head events' lines towards the core while the handler
      // below runs.  Pure hint: a handler-scheduled earlier event just
      // makes the prefetch useless, never wrong.
      int found = 0;
      for (std::uint64_t k = 1; k <= 8 && found < 2; ++k) {
        const std::uint32_t h = buckets_[(cur_ + k) & mask_].head;
        if (h != kNil) {
          __builtin_prefetch(&event(h));
          ++found;
        }
      }
    } else {
      // The chain successor is the likeliest next dispatch.
      __builtin_prefetch(&event(bk.head));
    }
    --in_window_;
  }
  // kRunning (not freed) while the handler executes: a cancel() aimed at
  // the running event is a defined no-op, and the handle only goes stale
  // when the slot is freed below.
  ev.state = State::kRunning;
  now_ = ev.t;
  ++dispatched_;
  --live_;
  if (!from_lane) {
    // The width tunes to the calendar's own dispatch gaps.
    if (ev.t > last_dispatch_t_) {
      const double gap = ev.t - last_dispatch_t_;
      gap_ewma_ = gap_ewma_ == 0.0 ? gap : 0.875 * gap_ewma_ + 0.125 * gap;
    }
    last_dispatch_t_ = ev.t;
    if (--retune_countdown_ == 0) {
      retune_countdown_ = kRetunePeriod;
      maybe_retune();
    }
  }
  // Destroy-and-free runs on the success path and the throw path alike
  // (the run_until exception contract).  The callable executes in place;
  // the slab slot is address-stable throughout.
  struct SlotGuard {
    Scheduler* s;
    std::uint32_t slot;
    ~SlotGuard() { s->free_slot(slot); }
  } guard{this, slot};
  ev.fn.invoke();
}

void Scheduler::rebuild(std::uint64_t nbuckets, double width, bool estimate_width) {
  cal_known_ = false;  // cur_ moves; the head is found again by skim
  std::vector<std::uint32_t> slots;
  slots.reserve(live_ - lane_live_);
  for (Bucket& bk : buckets_) {
    std::uint32_t s = bk.head;
    while (s != kNil) {
      const std::uint32_t next = event(s).next;
      if (event(s).state == State::kCancelled) {
        free_slot(s);
      } else {
        slots.push_back(s);
      }
      s = next;
    }
    bk.head = bk.tail = kNil;
  }
  for (const OvfEntry& e : overflow_) {
    event(e.slot).in_overflow = false;
    if (event(e.slot).state == State::kCancelled) {
      free_slot(e.slot);
    } else {
      slots.push_back(e.slot);
    }
  }
  overflow_.clear();
  overflow_carcasses_ = 0;

  if (estimate_width && slots.size() >= 32) {
    // Width from the population itself: a strided sample of pending times,
    // sorted; consecutive sample gaps span ~(live / samples) events each,
    // so the median positive gap scaled back down is a robust local
    // inter-event spacing (far-future outliers only inflate the top gaps).
    const std::size_t stride = std::max<std::size_t>(1, slots.size() / 256);
    std::vector<double> ts;
    ts.reserve(slots.size() / stride + 1);
    for (std::size_t i = 0; i < slots.size(); i += stride) {
      const double t = event(slots[i]).t;
      if (std::isfinite(t)) ts.push_back(t);
    }
    std::sort(ts.begin(), ts.end());
    std::vector<double> gaps;
    gaps.reserve(ts.size());
    for (std::size_t i = 1; i < ts.size(); ++i) {
      const double g = ts[i] - ts[i - 1];
      if (g > 0.0) gaps.push_back(g);
    }
    if (gaps.size() >= 8) {
      std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
      const double per_event = gaps[gaps.size() / 2] * static_cast<double>(ts.size()) /
                               static_cast<double>(slots.size());
      width = 2.0 * per_event;  // aim for ~2 events per bucket
    }
  }
  width = std::max(width, 1e-12);
  // now() itself must stay mappable or the new window origin is undefined.
  if (!(now_ / width < kMaxBucketIndex / 2.0)) width = now_ / (kMaxBucketIndex / 2.0);

  buckets_.assign(static_cast<std::size_t>(nbuckets), Bucket{});
  mask_ = nbuckets - 1;
  width_ = width;
  inv_width_ = 1.0 / width;
  in_window_ = 0;
  win_lo_ = cur_ = bucket_of(now_);
  if (win_lo_ == kFarFuture) win_lo_ = cur_ = 0;  // unreachable after the clamp above

  for (const std::uint32_t s : slots) {
    std::uint64_t b = bucket_of(event(s).t);
    if (b >= win_lo_ + (mask_ + 1)) {
      overflow_push(s);
    } else {
      if (b < cur_) b = cur_;
      bucket_insert(static_cast<std::size_t>(b & mask_), s);
      ++in_window_;
    }
  }
}

void Scheduler::grow() { rebuild((mask_ + 1) * 2, width_); }

void Scheduler::maybe_overload_rebuild() {
  overloaded_ = false;
  // Hysteresis: one estimating rebuild per doubling of the population, so
  // a pile-up the estimator cannot separate (e.g. mass ties) degrades to
  // plain sorted inserts instead of a rebuild storm.
  if (live_ - lane_live_ < 2 * overload_mark_) return;
  rebuild(mask_ + 1, width_, /*estimate_width=*/true);
  overload_mark_ = live_ - lane_live_;
}

void Scheduler::maybe_retune() {
  if (gap_ewma_ <= 0.0) return;
  // Aim for a few events per bucket; only pay for a rebuild when the
  // current width is off by more than an order of magnitude both ways.
  const double target = gap_ewma_ * 2.0;
  if (width_ > target * 16.0 || width_ * 16.0 < target) {
    rebuild(mask_ + 1, target);
  }
}

// --- public API -------------------------------------------------------

bool Scheduler::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= next_unused_) return false;
  Event& ev = event(id.slot_);
  if (ev.gen != id.gen_ || ev.state != State::kQueued) return false;
  ev.state = State::kCancelled;
  ev.fn.destroy();  // release captured resources immediately
  --live_;
  ++cancelled_;
  // A lane carcass is freed when it reaches the lane's head.
  if (ev.in_lane) --lane_live_;
  if (id.slot_ == cal_head_) cal_known_ = false;  // skim discards it
  // In-bucket carcasses die when the scan reaches them (soon: the window
  // covers the near future).  Overflow carcasses could sit for an
  // arbitrarily long sim-time, so compact once they outnumber live
  // overflow events -- amortized O(1) per cancel.
  if (ev.in_overflow && ++overflow_carcasses_ * 2 > overflow_.size()) compact_overflow();
  return true;
}

bool Scheduler::step() {
  const std::uint32_t slot = next_event();
  if (slot == kNil) return false;
  dispatch(slot);
  return true;
}

std::uint64_t Scheduler::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Scheduler::run_until(SimTime t_end) {
  std::uint64_t n = 0;
  for (;;) {
    const std::uint32_t slot = next_event();
    if (slot == kNil || event(slot).t > t_end) break;
    dispatch(slot);  // on throw: counted in events_dispatched(), clock at ev.t
    ++n;
  }
  if (now_ < t_end) now_ = t_end;
  return n;
}

}  // namespace mcnet::evsim
