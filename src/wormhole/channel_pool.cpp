#include "wormhole/channel_pool.hpp"

#include <stdexcept>

namespace mcnet::worm {

ChannelPool::ChannelPool(std::uint32_t num_channels, std::uint8_t copies,
                         Arbitration arbitration,
                         std::function<double(std::uint32_t)> priority, std::uint64_t seed)
    : copies_(copies),
      arbitration_(arbitration),
      priority_(std::move(priority)),
      rng_(seed),
      holder_(static_cast<std::size_t>(num_channels) * copies, kNoWorm),
      queues_(num_channels) {
  if (copies == 0) throw std::invalid_argument("need >= 1 channel copy");
  if (arbitration == Arbitration::kOldestFirst && !priority_) {
    throw std::invalid_argument("oldest-first arbitration needs a priority function");
  }
}

void ChannelPool::enqueue(ChannelId c, const ChannelRequest& req) {
  std::uint32_t i = free_node_;
  if (i != kNil) {
    free_node_ = nodes_[i].next;
    nodes_[i] = Waiter{req, kNil};
  } else {
    i = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Waiter{req, kNil});
  }
  Queue& q = queues_[c];
  if (q.tail == kNil) {
    q.head = i;
  } else {
    nodes_[q.tail].next = i;
  }
  q.tail = i;
}

void ChannelPool::unlink(ChannelId c, std::uint32_t prev, std::uint32_t i) {
  Queue& q = queues_[c];
  const std::uint32_t next = nodes_[i].next;
  if (prev == kNil) {
    q.head = next;
  } else {
    nodes_[prev].next = next;
  }
  if (q.tail == i) q.tail = prev;
  nodes_[i].next = free_node_;
  free_node_ = i;
}

std::optional<std::pair<ChannelRequest, std::uint8_t>> ChannelPool::hand_over(
    ChannelId c, std::uint8_t copy) {
  // Arbitrate among the compatible waiters (Section 2.3.3) without
  // collecting them: FCFS stops at the first, oldest-first keeps the
  // running minimum, and random counts them, draws once over the count and
  // walks to its pick.
  const auto compatible = [copy](const ChannelRequest& r) {
    return r.copy == kAnyCopy || r.copy == static_cast<std::int8_t>(copy);
  };
  std::uint32_t pick = kNil;
  std::uint32_t pick_prev = kNil;
  std::uint32_t count = 0;
  for (std::uint32_t prev = kNil, i = queues_[c].head; i != kNil; prev = i, i = nodes_[i].next) {
    if (!compatible(nodes_[i].req)) continue;
    ++count;
    if (pick == kNil) {
      pick = i;
      pick_prev = prev;
      if (arbitration_ == Arbitration::kFcfs) break;  // first wins
    } else if (arbitration_ == Arbitration::kOldestFirst &&
               priority_(nodes_[i].req.worm_id) < priority_(nodes_[pick].req.worm_id)) {
      pick = i;
      pick_prev = prev;
    }
  }
  if (count == 0) return std::nullopt;
  if (arbitration_ == Arbitration::kRandom) {
    std::uint32_t skip = rng_.uniform_int(0, count - 1);
    pick_prev = kNil;
    for (pick = queues_[c].head;; pick_prev = pick, pick = nodes_[pick].next) {
      if (!compatible(nodes_[pick].req)) continue;
      if (skip == 0) break;
      --skip;
    }
  }
  const ChannelRequest req = nodes_[pick].req;
  unlink(c, pick_prev, pick);
  take(c, copy, req.worm_id);
  return std::make_pair(req, copy);
}

bool ChannelPool::cancel_request(ChannelId c, std::uint32_t worm_id, std::uint32_t link_index) {
  for (std::uint32_t prev = kNil, i = queues_[c].head; i != kNil; prev = i, i = nodes_[i].next) {
    if (nodes_[i].req.worm_id == worm_id && nodes_[i].req.link_index == link_index) {
      unlink(c, prev, i);
      return true;
    }
  }
  return false;
}

bool ChannelPool::retarget(ChannelId c, std::uint32_t old_worm, std::uint32_t old_link,
                           std::uint32_t new_worm, std::uint32_t new_link) {
  for (std::uint32_t i = queues_[c].head; i != kNil; i = nodes_[i].next) {
    ChannelRequest& r = nodes_[i].req;
    if (r.worm_id == old_worm && r.link_index == old_link) {
      r.worm_id = new_worm;
      r.link_index = new_link;
      return true;
    }
  }
  return false;
}

std::vector<ChannelRequest> ChannelPool::waiters(ChannelId c) const {
  std::vector<ChannelRequest> out;
  for (std::uint32_t i = queues_[c].head; i != kNil; i = nodes_[i].next) {
    out.push_back(nodes_[i].req);
  }
  return out;
}

}  // namespace mcnet::worm
