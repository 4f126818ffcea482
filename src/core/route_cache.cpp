#include "core/route_cache.hpp"

#include <algorithm>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace mcnet::mcast {

namespace {

/// Cache key: [source, sorted destinations...].
using Key = std::vector<topo::NodeId>;

struct KeyHash {
  std::size_t operator()(const Key& key) const {
    // FNV-1a over the node ids.
    std::uint64_t h = 1469598103934665603ull;
    for (const topo::NodeId id : key) {
      h ^= id;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

Key make_key(const MulticastRequest& request) {
  Key key;
  key.reserve(request.destinations.size() + 1);
  key.push_back(request.source);
  key.insert(key.end(), request.destinations.begin(), request.destinations.end());
  std::sort(key.begin() + 1, key.end());
  // Dedupe so requests carrying duplicate destinations share the entry of
  // their normalised form (the inner router dedupes before routing).
  key.erase(std::unique(key.begin() + 1, key.end()), key.end());
  return key;
}

}  // namespace

struct CachingRouter::Shard {
  struct Entry {
    Key key;
    MulticastRoute route;
  };

  std::mutex mutex;
  std::list<Entry> lru;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
  std::size_t capacity = 0;
  // Counters are guarded by `mutex` (not atomics): stats() locks every
  // shard before summing, so snapshots are never torn across counters.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

CachingRouter::CachingRouter(std::unique_ptr<Router> inner, RouteCacheConfig config)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("CachingRouter: inner router must not be null");
  if (config.capacity == 0) {
    throw std::invalid_argument(
        "RouteCacheConfig: capacity must be >= 1 (got 0); use the inner router "
        "directly to disable caching");
  }
  if (config.shards == 0) {
    throw std::invalid_argument("RouteCacheConfig: shards must be >= 1 (got 0)");
  }
  capacity_ = config.capacity;
  num_shards_ = std::min(config.shards, config.capacity);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  // Distribute the exact configured capacity: the first (capacity % shards)
  // shards take one extra slot, so per-shard budgets always sum to
  // capacity() with no rounding loss.
  const std::size_t base = capacity_ / num_shards_;
  const std::size_t extra = capacity_ % num_shards_;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    shards_[s].capacity = base + (s < extra ? 1 : 0);
  }
}

CachingRouter::~CachingRouter() = default;

void CachingRouter::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_hits_ = metric_misses_ = metric_evictions_ = nullptr;
    return;
  }
  metric_hits_ = &registry->counter("route_cache.hits");
  metric_misses_ = &registry->counter("route_cache.misses");
  metric_evictions_ = &registry->counter("route_cache.evictions");
}

MulticastRoute CachingRouter::route(const MulticastRequest& request) const {
  const Key key = make_key(request);
  Shard& shard = shards_[KeyHash{}(key) % num_shards_];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      if (metric_hits_ != nullptr) metric_hits_->inc();
      return it->second->route;
    }
  }

  // Compute outside the lock: route construction is the expensive part and
  // must not serialise concurrent simulation threads.
  MulticastRoute computed = inner_->route(request);

  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.misses;  // we did the work even if another thread won the insert
  if (metric_misses_ != nullptr) metric_misses_->inc();
  if (shard.map.find(key) != shard.map.end()) {
    return computed;  // another thread inserted the same key while we routed
  }
  shard.lru.push_front(Shard::Entry{key, computed});
  shard.map.emplace(shard.lru.front().key, shard.lru.begin());
  if (shard.map.size() > shard.capacity) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
    if (metric_evictions_ != nullptr) metric_evictions_->inc();
  }
  return computed;
}

RouteCacheStats CachingRouter::stats() const {
  // Acquire every shard lock (in fixed index order; route() only ever
  // holds one shard at a time, so this cannot deadlock) and sum while all
  // are held: the returned counters are one global point-in-time snapshot.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) locks.emplace_back(shards_[s].mutex);
  RouteCacheStats out;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    out.hits += shards_[s].hits;
    out.misses += shards_[s].misses;
    out.evictions += shards_[s].evictions;
  }
  return out;
}

std::size_t CachingRouter::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].map.size();
  }
  return total;
}

void CachingRouter::clear() {
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].map.clear();
    shards_[s].lru.clear();
  }
}

std::unique_ptr<CachingRouter> make_caching_router(const topo::Topology& topology,
                                                   Algorithm algorithm, std::uint8_t copies,
                                                   RouteCacheConfig config) {
  return std::make_unique<CachingRouter>(make_router(topology, algorithm, copies), config);
}

}  // namespace mcnet::mcast
