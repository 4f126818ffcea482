// Routing-throughput bench: routes/sec of the scalar Router::route loop vs
// Router::route_many on a cached Zipf-popularity workload (the
// destination-set locality that makes route caching pay in dynamic
// traffic).
//
// Sweeps:
//   zipf:*       -- scalar vs batch throughput as the Zipf exponent of the
//                   destination-set popularity grows (more skew = more hits)
//   pool:*       -- scalar vs batch as the distinct-request pool outgrows
//                   the cache (hit ratio falls from ~100% towards 0)
//   batch_size   -- batch throughput as requests per route_many call grow
//   shards:*     -- batch + 4-thread contended scalar throughput vs the
//                   cache shard count (the RouteCacheConfig::shards default
//                   was picked from this series)
//
// route_many is Router's scalar loop, so batch and scalar throughput
// agree up to noise; no script gates the headline ratio.  The committed
// BENCH_route_throughput.json is the record of the removed batch fast path
// (2.28x on the headline workload) and is not regenerated.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/experiment.hpp"

namespace {

using namespace mcnet;

/// Zipf(s) sampler over [0, n): P(i) ~ 1/(i+1)^s via inverse-CDF binary
/// search (s = 0 degenerates to uniform).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::size_t draw(evsim::Rng& rng) {
    const double u = rng.uniform(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A pool of distinct random requests plus a Zipf-drawn usage sequence.
struct Workload {
  std::vector<mcast::MulticastRequest> pool;
  std::vector<mcast::MulticastRequest> sequence;  // materialised draws
};

Workload make_workload(const topo::Topology& t, std::size_t pool_size, double zipf_s,
                       std::uint32_t k, std::size_t length, std::uint64_t seed) {
  Workload w;
  evsim::Rng rng(seed);
  w.pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    const topo::NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
    w.pool.push_back(mcast::MulticastRequest{src, rng.sample_destinations(t.num_nodes(), src, k)});
  }
  ZipfSampler zipf(pool_size, zipf_s);
  w.sequence.reserve(length);
  for (std::size_t i = 0; i < length; ++i) w.sequence.push_back(w.pool[zipf.draw(rng)]);
  return w;
}

struct Throughput {
  double routes_per_s = 0.0;
  std::uint64_t traffic_sink = 0;  // defeats dead-code elimination
};

Throughput measure_scalar(const mcast::Router& router,
                          const std::vector<mcast::MulticastRequest>& seq) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (const mcast::MulticastRequest& req : seq) sink += router.route(req).traffic();
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return {static_cast<double>(seq.size()) / dt.count(), sink};
}

Throughput measure_batch(const mcast::Router& router,
                         const std::vector<mcast::MulticastRequest>& seq,
                         std::size_t batch_size) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < seq.size(); i += batch_size) {
    const std::size_t n = std::min(batch_size, seq.size() - i);
    const mcast::RouteBatch batch =
        router.route_many(std::span<const mcast::MulticastRequest>(seq.data() + i, n));
    sink += batch.total_traffic();
  }
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return {static_cast<double>(seq.size()) / dt.count(), sink};
}

/// Contended scalar throughput: `threads` workers route disjoint slices of
/// `seq` through one shared router (shard-lock pressure).
Throughput measure_scalar_mt(const mcast::Router& router,
                             const std::vector<mcast::MulticastRequest>& seq,
                             unsigned threads) {
  std::vector<std::uint64_t> sinks(threads, 0);
  const std::size_t slice = seq.size() / threads;
  const auto t0 = std::chrono::steady_clock::now();
  worm::parallel_for(
      threads,
      [&](std::size_t w) {
        const std::size_t begin = w * slice;
        const std::size_t end = w + 1 == threads ? seq.size() : begin + slice;
        std::uint64_t sink = 0;
        for (std::size_t i = begin; i < end; ++i) sink += router.route(seq[i]).traffic();
        sinks[w] = sink;
      },
      threads);
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  std::uint64_t sink = 0;
  for (const std::uint64_t s : sinks) sink += s;
  return {static_cast<double>(seq.size()) / dt.count(), sink};
}

/// Repeat a measurement and keep the fastest run: throughput minima are
/// scheduling noise, not signal, and every rep sees identical cache state
/// (the caches are pre-warmed), so max is the honest steady-state figure.
template <typename Fn>
Throughput best_of(int reps, Fn&& fn) {
  Throughput best;
  for (int r = 0; r < reps; ++r) {
    const Throughput t = fn();
    best.traffic_sink = t.traffic_sink;
    if (t.routes_per_s > best.routes_per_s) best.routes_per_s = t.routes_per_s;
  }
  return best;
}

obs::Json point(double x, const Throughput& t, const mcast::CachingRouter* cache) {
  obs::Json p = obs::Json::object();
  p["x"] = obs::Json(x);
  p["y"] = obs::Json(t.routes_per_s);
  p["routes_per_s"] = obs::Json(t.routes_per_s);
  if (cache != nullptr) {
    const mcast::RouteCacheStats st = cache->stats();
    p["hit_rate"] = obs::Json(st.hit_rate());
  }
  return p;
}

}  // namespace

int main() {
  using namespace mcnet;
  bench::JsonReporter json("bench_route_throughput");

  const topo::Mesh2D mesh(16, 16);
  const mcast::Algorithm algo = mcast::Algorithm::kDualPath;
  const std::uint32_t k = 10;  // destinations per multicast
  const std::size_t seq_len =
      static_cast<std::size_t>(bench::scaled_count(120000));
  const std::size_t headline_batch = 512;  // batch-size sweep's sweet spot

  json.meta()["topology"] = obs::Json(mesh.name());
  json.meta()["algorithm"] = obs::Json(std::string(mcast::algorithm_name(algo)));
  json.meta()["destinations"] = obs::Json(k);
  json.meta()["sequence_length"] = obs::Json(static_cast<std::uint64_t>(seq_len));

  std::printf("route throughput: %s, %s, k=%u, %zu requests/point (scale %.2f)\n\n",
              mesh.name().c_str(), mcast::algorithm_name(algo).data(), k, seq_len,
              bench::bench_scale());

  // -- Headline: cached Zipf workload, scalar vs batch ----------------------
  {
    const Workload w = make_workload(mesh, 1024, 1.0, k, seq_len, 42);
    const auto scalar_router = mcast::make_caching_router(mesh, algo);
    const auto batch_router = mcast::make_caching_router(mesh, algo);
    // Warm both caches identically so the measurement is the steady state.
    (void)measure_batch(*scalar_router, w.pool, headline_batch);
    (void)measure_batch(*batch_router, w.pool, headline_batch);
    const Throughput scalar =
        best_of(3, [&] { return measure_scalar(*scalar_router, w.sequence); });
    const Throughput batch =
        best_of(3, [&] { return measure_batch(*batch_router, w.sequence, headline_batch); });
    const double speedup = batch.routes_per_s / scalar.routes_per_s;
    if (scalar.traffic_sink != batch.traffic_sink) {
      std::fprintf(stderr, "error: scalar/batch traffic mismatch (%llu vs %llu)\n",
                   static_cast<unsigned long long>(scalar.traffic_sink),
                   static_cast<unsigned long long>(batch.traffic_sink));
      return 1;
    }
    std::printf("headline (Zipf s=1.0, pool 1024, batch %zu):\n", headline_batch);
    std::printf("  scalar route():      %12.0f routes/s\n", scalar.routes_per_s);
    std::printf("  batch  route_many(): %12.0f routes/s  (%.2fx)\n\n", batch.routes_per_s,
                speedup);
    obs::Json& h = json.meta()["headline"];
    h = obs::Json::object();
    h["scalar_routes_per_s"] = obs::Json(scalar.routes_per_s);
    h["batch_routes_per_s"] = obs::Json(batch.routes_per_s);
    h["speedup"] = obs::Json(speedup);
    h["batch_size"] = obs::Json(static_cast<std::uint64_t>(headline_batch));
    h["zipf_s"] = obs::Json(1.0);
    h["pool"] = obs::Json(1024);
    json.add_point("headline:scalar", point(1.0, scalar, scalar_router.get()));
    json.add_point("headline:batch", point(1.0, batch, batch_router.get()));
  }

  // -- Zipf-exponent sweep: skew vs throughput ------------------------------
  std::printf("%10s %16s %16s %10s\n", "zipf_s", "scalar r/s", "batch r/s", "hit%");
  for (const double s : {0.0, 0.5, 0.8, 1.0, 1.3}) {
    const Workload w = make_workload(mesh, 1024, s, k, seq_len, 97);
    const auto scalar_router = mcast::make_caching_router(mesh, algo);
    const auto batch_router = mcast::make_caching_router(mesh, algo);
    (void)measure_batch(*scalar_router, w.pool, headline_batch);
    (void)measure_batch(*batch_router, w.pool, headline_batch);
    const Throughput scalar = measure_scalar(*scalar_router, w.sequence);
    const Throughput batch = measure_batch(*batch_router, w.sequence, headline_batch);
    const double hit = scalar_router->stats().hit_rate();
    std::printf("%10.1f %16.0f %16.0f %9.1f%%\n", s, scalar.routes_per_s,
                batch.routes_per_s, hit * 100.0);
    json.add_point("zipf:scalar", point(s, scalar, scalar_router.get()));
    json.add_point("zipf:batch", point(s, batch, batch_router.get()));
  }
  std::printf("\n");

  // -- Pool-size sweep: hit ratio falls as the pool outgrows the cache ------
  std::printf("%10s %16s %16s %10s\n", "pool", "scalar r/s", "batch r/s", "hit%");
  for (const std::size_t pool : {256ul, 1024ul, 4096ul, 16384ul}) {
    const Workload w = make_workload(mesh, pool, 0.8, k, seq_len, 131);
    const auto scalar_router = mcast::make_caching_router(mesh, algo);
    const auto batch_router = mcast::make_caching_router(mesh, algo);
    (void)measure_batch(*scalar_router, w.pool, headline_batch);
    (void)measure_batch(*batch_router, w.pool, headline_batch);
    const Throughput scalar = measure_scalar(*scalar_router, w.sequence);
    const Throughput batch = measure_batch(*batch_router, w.sequence, headline_batch);
    const double hit = scalar_router->stats().hit_rate();
    std::printf("%10zu %16.0f %16.0f %9.1f%%\n", pool, scalar.routes_per_s,
                batch.routes_per_s, hit * 100.0);
    json.add_point("pool:scalar", point(static_cast<double>(pool), scalar, scalar_router.get()));
    json.add_point("pool:batch", point(static_cast<double>(pool), batch, batch_router.get()));
  }
  std::printf("\n");

  // -- Batch-size sweep ------------------------------------------------------
  std::printf("%10s %16s\n", "batch", "batch r/s");
  {
    const Workload w = make_workload(mesh, 1024, 1.0, k, seq_len, 163);
    for (const std::size_t b : {1ul, 8ul, 32ul, 128ul, 512ul, 2048ul}) {
      const auto router = mcast::make_caching_router(mesh, algo);
      (void)measure_batch(*router, w.pool, headline_batch);
      const Throughput batch = measure_batch(*router, w.sequence, b);
      std::printf("%10zu %16.0f\n", b, batch.routes_per_s);
      json.add_point("batch_size", point(static_cast<double>(b), batch, router.get()));
    }
  }
  std::printf("\n");

  // -- Shard sweep: single-thread batch + contended 4-thread scalar ---------
  std::printf("%10s %16s %18s\n", "shards", "batch r/s", "scalar-mt4 r/s");
  {
    const Workload w = make_workload(mesh, 1024, 1.0, k, seq_len, 199);
    for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
      const mcast::RouteCacheConfig cfg{.capacity = 4096, .shards = shards};
      const auto batch_router = mcast::make_caching_router(mesh, algo, 1, cfg);
      const auto mt_router = mcast::make_caching_router(mesh, algo, 1, cfg);
      (void)measure_batch(*batch_router, w.pool, headline_batch);
      (void)measure_batch(*mt_router, w.pool, headline_batch);
      const Throughput batch = measure_batch(*batch_router, w.sequence, headline_batch);
      const Throughput mt = measure_scalar_mt(*mt_router, w.sequence, 4);
      std::printf("%10zu %16.0f %18.0f\n", shards, batch.routes_per_s, mt.routes_per_s);
      json.add_point("shards:batch",
                     point(static_cast<double>(shards), batch, batch_router.get()));
      json.add_point("shards:scalar-mt4",
                     point(static_cast<double>(shards), mt, mt_router.get()));
    }
  }
  std::printf("\n");

  return json.write() ? 0 : 1;
}
