// Physical channel state for the wormhole simulator.
//
// Each directed topology channel exists in `copies` physical instances
// (copies = 2 models the paper's double-channel networks of Section 6.2.1).
// Worms acquire whole channels from header arrival until their tail flit
// has drained past; blocked requests wait in a strict FCFS queue per
// channel.  A request may demand a specific copy (the tree algorithms pin
// each quadrant subnetwork to its own copy, which is what makes them
// deadlock-free) or accept any copy (the path algorithms' subnetworks are
// acyclic regardless of copy).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "evsim/random.hpp"
#include "topology/topology.hpp"

namespace mcnet::worm {

/// Resource selection policy (Section 2.3.3): which waiting message gets a
/// freed channel.
enum class Arbitration : std::uint8_t {
  kFcfs,         // first come first served (the default everywhere)
  kOldestFirst,  // fixed priority by message age
  kRandom,       // uniformly random among compatible waiters
};

using topo::ChannelId;

inline constexpr std::uint32_t kNoWorm = static_cast<std::uint32_t>(-1);
inline constexpr std::int8_t kAnyCopy = -1;

/// A pending acquisition: worm `worm_id` wants this channel for its link
/// `link_index`, restricted to `copy` (or kAnyCopy).
struct ChannelRequest {
  std::uint32_t worm_id = kNoWorm;
  std::uint32_t link_index = 0;
  std::int8_t copy = kAnyCopy;
};

class ChannelPool {
 public:
  /// `priority` (required for kOldestFirst) maps a worm id to its creation
  /// time; smaller wins.
  ChannelPool(std::uint32_t num_channels, std::uint8_t copies,
              Arbitration arbitration = Arbitration::kFcfs,
              std::function<double(std::uint32_t)> priority = {},
              std::uint64_t seed = 1);

  /// Try to acquire a copy of channel `c`; returns the granted copy index,
  /// or queues the request and returns nullopt.
  [[nodiscard]] std::optional<std::uint8_t> acquire(ChannelId c, const ChannelRequest& req) {
    if (req.copy == kAnyCopy) {
      for (std::uint8_t k = 0; k < copies_; ++k) {
        if (holder_[index(c, k)] == kNoWorm) return take(c, k, req.worm_id);
      }
    } else {
      const auto k = static_cast<std::uint8_t>(req.copy);
      if (k >= copies_) throw std::invalid_argument("copy index out of range");
      if (holder_[index(c, k)] == kNoWorm) return take(c, k, req.worm_id);
    }
    enqueue(c, req);
    return std::nullopt;
  }

  /// Release copy `copy` of channel `c`; if a compatible waiter exists, the
  /// copy is handed to the first one and (request, copy) is returned so the
  /// caller can notify the worm.  Strict FCFS among compatible waiters.
  [[nodiscard]] std::optional<std::pair<ChannelRequest, std::uint8_t>> release(
      ChannelId c, std::uint8_t copy) {
    std::uint32_t& slot = holder_[index(c, copy)];
    if (slot == kNoWorm) throw std::logic_error("releasing a free channel");
    slot = kNoWorm;
    --busy_;
    if (queues_[c].head == kNil) return std::nullopt;
    return hand_over(c, copy);
  }

  /// Drop the queued request of worm `worm_id`'s link `link_index` on
  /// channel `c` (used when killing a worm: a worm waits only on its
  /// ungranted frontier links).  Returns false if no such request is
  /// queued.  The other waiters keep their FCFS order.
  bool cancel_request(ChannelId c, std::uint32_t worm_id, std::uint32_t link_index);

  /// Re-address a queued request in place, preserving its FCFS position
  /// (used by virtual cut-through to hand a blocked wait over to the
  /// continuation worm).  Returns false if no such request is queued.
  bool retarget(ChannelId c, std::uint32_t old_worm, std::uint32_t old_link,
                std::uint32_t new_worm, std::uint32_t new_link);

  [[nodiscard]] std::uint32_t holder(ChannelId c, std::uint8_t copy) const {
    return holder_[index(c, copy)];
  }
  /// The requests queued on channel `c`, oldest first.
  [[nodiscard]] std::vector<ChannelRequest> waiters(ChannelId c) const;
  [[nodiscard]] std::uint8_t copies() const { return copies_; }
  [[nodiscard]] std::uint32_t num_channels() const {
    return static_cast<std::uint32_t>(queues_.size());
  }
  [[nodiscard]] std::uint32_t busy_count() const { return busy_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// A queued request, linked into its channel's FIFO; free nodes chain
  /// through `next` too.
  struct Waiter {
    ChannelRequest req;
    std::uint32_t next = kNil;
  };
  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] std::size_t index(ChannelId c, std::uint8_t copy) const {
    return static_cast<std::size_t>(c) * copies_ + copy;
  }
  std::uint8_t take(ChannelId c, std::uint8_t copy, std::uint32_t worm_id) {
    holder_[index(c, copy)] = worm_id;
    ++busy_;
    return copy;
  }
  void enqueue(ChannelId c, const ChannelRequest& req);
  /// Unlink node `i` (whose predecessor is `prev`, or kNil at the head)
  /// from channel `c`'s queue and free it.
  void unlink(ChannelId c, std::uint32_t prev, std::uint32_t i);
  /// Arbitrate the freed copy among `c`'s compatible waiters.
  std::optional<std::pair<ChannelRequest, std::uint8_t>> hand_over(ChannelId c,
                                                                   std::uint8_t copy);

  std::uint8_t copies_;
  Arbitration arbitration_;
  std::function<double(std::uint32_t)> priority_;
  evsim::Rng rng_;
  std::uint32_t busy_ = 0;
  std::vector<std::uint32_t> holder_;  // per physical copy
  std::vector<Queue> queues_;          // per logical channel
  std::vector<Waiter> nodes_;          // queued requests of every channel
  std::uint32_t free_node_ = kNil;
};

}  // namespace mcnet::worm
