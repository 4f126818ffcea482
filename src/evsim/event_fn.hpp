// Small-buffer callable for arena-allocated kernel events.  The hot path
// (worm advancement, channel drains, traffic arrivals) constructs the
// capture in place inside the event record -- no heap allocation, no
// std::function.  Oversized captures (a handful of service-layer retry
// closures) fall back to a single heap allocation instead of silently
// failing to compile.
//
// Layout matters here: the whole dispatch table is one static Ops record
// per callable type, so an EventFn is a single pointer plus the inline
// buffer.  That keeps the scheduler's Event header and a small capture
// together in one cache line (see the Event layout notes in scheduler.hpp)
// and the Ops record itself stays hot in L1 for homogeneous event streams.
//
// Invoke and destroy are split so the scheduler can (a) destroy a
// cancelled callable immediately without running it -- releasing whatever
// resources it captured -- and (b) guarantee destruction after a handler
// throws (the run_until exception contract, see scheduler.hpp).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mcnet::evsim {

/// Inline capture budget per event: 24 bytes, sized so the scheduler's
/// whole Event record is exactly one 64-byte cache line.  That covers the
/// hot-path closures (worm advancement, traffic arrivals: a `this` plus an
/// id or two); bigger captures (service-layer retry closures holding
/// shared_ptrs and vectors) heap-allocate transparently -- they are
/// per-message control events, not per-flit traffic.
inline constexpr std::size_t kEventFnInlineBytes = 24;

class EventFn {
 public:
  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  // Events never move: slots live in address-stable slabs.
  EventFn(EventFn&&) = delete;
  EventFn& operator=(EventFn&&) = delete;
  ~EventFn() { destroy(); }

  /// Construct the callable in place.  The slot must be empty (the
  /// scheduler destroys before reuse).
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "event handler must be callable as void()");
    if constexpr (sizeof(Fn) <= kEventFnInlineBytes && alignof(Fn) <= 8) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      static constexpr Ops kOps = {
          [](void* p) { (*static_cast<Fn*>(p))(); },
          [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      };
      ops_ = &kOps;
    } else {
      // Heap fallback: the pointer to the heap copy lives at the start of
      // the inline buffer, and the Ops variant knows to chase it.
      Fn* heap = new Fn(std::forward<F>(f));
      ::new (static_cast<void*>(buf_)) Fn*(heap);
      static constexpr Ops kOps = {
          [](void* p) { (**static_cast<Fn**>(p))(); },
          [](void* p) { delete *static_cast<Fn**>(p); },
      };
      ops_ = &kOps;
    }
  }

  [[nodiscard]] bool armed() const { return ops_ != nullptr; }

  /// Run the callable (may throw).  Does NOT destroy it -- pair with
  /// destroy(), which the scheduler guarantees on success and throw alike.
  /// The callable runs in place, so the slot must stay address-stable for
  /// the duration (slab arenas never move existing slots).
  void invoke() { ops_->invoke(buf_); }

  /// Destroy without running (cancellation, post-invoke cleanup, slab
  /// teardown).  Idempotent.
  void destroy() {
    if (ops_ == nullptr) return;
    const Ops* o = ops_;
    ops_ = nullptr;
    o->destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };

  const Ops* ops_ = nullptr;
  alignas(8) unsigned char buf_[kEventFnInlineBytes];
};

}  // namespace mcnet::evsim
