// Routing-throughput bench: routes/sec of the cached scalar Router::route
// loop on a Zipf-popularity workload (the destination-set locality that
// makes route caching pay in dynamic traffic).
//
// Sweeps:
//   zipf:scalar        -- throughput as the Zipf exponent of the
//                         destination-set popularity grows (more skew =
//                         more hits)
//   pool:scalar        -- throughput as the distinct-request pool outgrows
//                         the cache (hit ratio falls from ~100% towards 0)
//   shards:*           -- single-thread and 4-thread contended throughput
//                         vs the cache shard count (the
//                         RouteCacheConfig::shards default was picked from
//                         this series)
//
// No script gates these numbers; BENCH_route_throughput.json is the
// committed record of the last full-scale run.
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

obs::Json point(double x, const Throughput& t, const mcast::CachingRouter& cache) {
  obs::Json p = obs::Json::object();
  p["x"] = obs::Json(x);
  p["y"] = obs::Json(t.routes_per_s);
  p["routes_per_s"] = obs::Json(t.routes_per_s);
  p["hit_rate"] = obs::Json(cache.stats().hit_rate());
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

  json.meta()["topology"] = obs::Json(mesh.name());
  json.meta()["algorithm"] = obs::Json(std::string(mcast::algorithm_name(algo)));
  json.meta()["destinations"] = obs::Json(k);
  json.meta()["sequence_length"] = obs::Json(static_cast<std::uint64_t>(seq_len));

  std::printf("route throughput: %s, %s, k=%u, %zu requests/point (scale %.2f)\n\n",
              mesh.name().c_str(), mcast::algorithm_name(algo).data(), k, seq_len,
              bench::bench_scale());

  // -- Zipf-exponent sweep: skew vs throughput ------------------------------
  std::printf("%10s %16s %10s\n", "zipf_s", "scalar r/s", "hit%");
  for (const double s : {0.0, 0.5, 0.8, 1.0, 1.3}) {
    const Workload w = make_workload(mesh, 1024, s, k, seq_len, 97);
    const auto router = mcast::make_caching_router(mesh, algo);
    (void)measure_scalar(*router, w.pool);  // warm the cache: steady state
    const Throughput scalar = measure_scalar(*router, w.sequence);
    std::printf("%10.1f %16.0f %9.1f%%\n", s, scalar.routes_per_s,
                router->stats().hit_rate() * 100.0);
    json.add_point("zipf:scalar", point(s, scalar, *router));
  }
  std::printf("\n");

  // -- Pool-size sweep: hit ratio falls as the pool outgrows the cache ------
  std::printf("%10s %16s %10s\n", "pool", "scalar r/s", "hit%");
  for (const std::size_t pool : {256ul, 1024ul, 4096ul, 16384ul}) {
    const Workload w = make_workload(mesh, pool, 0.8, k, seq_len, 131);
    const auto router = mcast::make_caching_router(mesh, algo);
    (void)measure_scalar(*router, w.pool);
    const Throughput scalar = measure_scalar(*router, w.sequence);
    std::printf("%10zu %16.0f %9.1f%%\n", pool, scalar.routes_per_s,
                router->stats().hit_rate() * 100.0);
    json.add_point("pool:scalar", point(static_cast<double>(pool), scalar, *router));
  }
  std::printf("\n");

  // -- Shard sweep: single-thread + contended 4-thread scalar ---------------
  std::printf("%10s %16s %18s\n", "shards", "scalar r/s", "scalar-mt4 r/s");
  {
    const Workload w = make_workload(mesh, 1024, 1.0, k, seq_len, 199);
    for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
      const mcast::RouteCacheConfig cfg{.capacity = 4096, .shards = shards};
      const auto router = mcast::make_caching_router(mesh, algo, 1, cfg);
      const auto mt_router = mcast::make_caching_router(mesh, algo, 1, cfg);
      (void)measure_scalar(*router, w.pool);
      (void)measure_scalar(*mt_router, w.pool);
      const Throughput scalar = measure_scalar(*router, w.sequence);
      const Throughput mt = measure_scalar_mt(*mt_router, w.sequence, 4);
      std::printf("%10zu %16.0f %18.0f\n", shards, scalar.routes_per_s, mt.routes_per_s);
      json.add_point("shards:scalar",
                     point(static_cast<double>(shards), scalar, *router));
      json.add_point("shards:scalar-mt4",
                     point(static_cast<double>(shards), mt, *mt_router));
    }
  }
  std::printf("\n");

  return json.write() ? 0 : 1;
}
