#include "wormhole/channel_pool.hpp"

#include <algorithm>
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

std::optional<std::uint8_t> ChannelPool::acquire(ChannelId c, const ChannelRequest& req) {
  if (req.copy == kAnyCopy) {
    for (std::uint8_t k = 0; k < copies_; ++k) {
      if (holder_[index(c, k)] == kNoWorm) {
        holder_[index(c, k)] = req.worm_id;
        ++busy_;
        return k;
      }
    }
  } else {
    const auto k = static_cast<std::uint8_t>(req.copy);
    if (k >= copies_) throw std::invalid_argument("copy index out of range");
    if (holder_[index(c, k)] == kNoWorm) {
      holder_[index(c, k)] = req.worm_id;
      ++busy_;
      return k;
    }
  }
  queues_[c].push_back(req);
  return std::nullopt;
}

std::optional<std::pair<ChannelRequest, std::uint8_t>> ChannelPool::release(
    ChannelId c, std::uint8_t copy) {
  auto& slot = holder_[index(c, copy)];
  if (slot == kNoWorm) throw std::logic_error("releasing a free channel");
  slot = kNoWorm;
  --busy_;
  auto& q = queues_[c];
  // Arbitrate among the compatible waiters (Section 2.3.3) without
  // collecting them: FCFS stops at the first, oldest-first keeps the
  // running minimum, and random counts them, draws once over the count and
  // walks to its pick.
  const auto compatible = [copy](const ChannelRequest& r) {
    return r.copy == kAnyCopy || r.copy == static_cast<std::int8_t>(copy);
  };
  std::size_t pick = q.size();
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (!compatible(q[i])) continue;
    ++count;
    if (pick == q.size()) {
      pick = i;
      if (arbitration_ == Arbitration::kFcfs) break;  // first wins
    } else if (arbitration_ == Arbitration::kOldestFirst &&
               priority_(q[i].worm_id) < priority_(q[pick].worm_id)) {
      pick = i;
    }
  }
  if (count == 0) return std::nullopt;
  if (arbitration_ == Arbitration::kRandom) {
    std::uint32_t skip = rng_.uniform_int(0, count - 1);
    for (pick = 0;; ++pick) {
      if (!compatible(q[pick])) continue;
      if (skip == 0) break;
      --skip;
    }
  }
  const ChannelRequest req = q[pick];
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
  holder_[index(c, copy)] = req.worm_id;
  ++busy_;
  return std::make_pair(req, copy);
}

bool ChannelPool::retarget(ChannelId c, std::uint32_t old_worm, std::uint32_t old_link,
                           std::uint32_t new_worm, std::uint32_t new_link) {
  for (ChannelRequest& r : queues_[c]) {
    if (r.worm_id == old_worm && r.link_index == old_link) {
      r.worm_id = new_worm;
      r.link_index = new_link;
      return true;
    }
  }
  return false;
}

void ChannelPool::cancel_requests(std::uint32_t worm_id) {
  for (auto& q : queues_) {
    std::erase_if(q, [worm_id](const ChannelRequest& r) { return r.worm_id == worm_id; });
  }
}

}  // namespace mcnet::worm
