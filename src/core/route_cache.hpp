// Memoizing Router decorator: a bounded, sharded, mutex-protected LRU
// keyed on (source, sorted destination set).  Multicast routes are pure
// functions of the request on an immutable topology, so repeated-group
// dynamic traffic and parallel_for sweeps can reuse a route instead of
// recomputing it -- the destination-set persistence that minimum-cost
// multicast work exploits when connections outlive single packets.
//
// route() is thread-safe; hit/miss/eviction counters are exposed for
// observability.  Counters live inside the shards and stats() reads them
// with every shard lock held, so a concurrent sweep always sees one
// consistent (hits, misses, evictions) snapshot rather than a torn mix of
// before/after values.
//
// There is one lookup path: route_many() is Router's scalar loop, so every
// request of a batch takes one shard lookup and is counted there.
#pragma once

#include <cstdint>
#include <memory>

#include "core/router.hpp"

namespace mcnet::obs {
class MetricsRegistry;
class Counter;
}  // namespace mcnet::obs

namespace mcnet::mcast {

struct RouteCacheConfig {
  /// Total cached routes across all shards.  Must be >= 1; CachingRouter
  /// rejects 0 with std::invalid_argument (an uncached router is spelled
  /// `make_router`, not a zero-capacity cache).
  std::size_t capacity = 4096;
  /// Independent mutex-protected LRU shards (reduces lock contention when
  /// many simulation threads share one router).  Must be >= 1; when shards
  /// exceeds capacity the shard count is clamped to capacity so every
  /// shard can hold at least one route.  The default of 8 was tuned with
  /// bench_route_throughput's shard sweep: contended multi-threaded
  /// lookups gain up to ~2x from 1 -> 8 shards and plateau beyond that.
  std::size_t shards = 8;
};

struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Always 0: route_many() is Router's scalar loop, so batch requests are
  /// counted in `hits` / `misses` like any other.  Retained only because
  /// perfbench/src/workloads.cpp still reads them.
  std::uint64_t batch_hits = 0;
  std::uint64_t batch_misses = 0;
  std::uint64_t batch_dedup = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class CachingRouter final : public Router {
 public:
  /// Throws std::invalid_argument when `inner` is null or `config` has a
  /// zero capacity or shard count.
  explicit CachingRouter(std::unique_ptr<Router> inner, RouteCacheConfig config = {});
  ~CachingRouter() override;

  /// Cached lookup; on a miss the inner router computes outside the shard
  /// lock.  Destination order does not affect the cache key, so permuted
  /// requests for the same multicast set share one entry.
  [[nodiscard]] MulticastRoute route(const MulticastRequest& request) const override;

  [[nodiscard]] std::vector<worm::WormSpec> specs(const MulticastRoute& route) const override {
    return inner_->specs(route);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] Algorithm algorithm() const override { return inner_->algorithm(); }
  [[nodiscard]] bool deadlock_free() const override { return inner_->deadlock_free(); }
  [[nodiscard]] const topo::Topology& topology() const override { return inner_->topology(); }
  [[nodiscard]] std::uint8_t channel_copies() const override {
    return inner_->channel_copies();
  }

  /// Register live counters route_cache.hits / .misses / .evictions on
  /// `registry` (nullptr detaches).  Counters update as route() runs, so a
  /// registry dump mid-sweep sees current values; stats() stays the
  /// consistent-snapshot interface.
  void set_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] const Router& inner() const { return *inner_; }
  /// Consistent snapshot: all shard locks are held while the counters are
  /// summed, so hits/misses/evictions always belong to one point in time.
  [[nodiscard]] RouteCacheStats stats() const;
  /// Routes currently held across all shards (<= capacity()).
  [[nodiscard]] std::size_t size() const;
  /// The configured total capacity, exactly as passed in (per-shard budgets
  /// sum to it; no rounding to a shard multiple).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Effective shard count (config.shards clamped to capacity).
  [[nodiscard]] std::size_t shards() const { return num_shards_; }
  /// Drops every cached route.
  void clear();

 private:
  struct Shard;

  std::unique_ptr<Router> inner_;
  std::size_t capacity_;
  std::size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
};

/// make_router(...) wrapped in a CachingRouter.
[[nodiscard]] std::unique_ptr<CachingRouter> make_caching_router(
    const topo::Topology& topology, Algorithm algorithm, std::uint8_t copies = 1,
    RouteCacheConfig config = {});

}  // namespace mcnet::mcast
