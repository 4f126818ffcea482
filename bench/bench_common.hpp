// Shared harness code for the figure-reproduction benches: random multicast
// workloads, static traffic sweeps, dynamic latency sweeps, aligned table
// printing matching the series the paper's figures plot, and a JSON
// reporter that writes every bench's results as a machine-readable
// "mcnet-bench-v1" document (see src/obs/bench_schema.hpp and
// docs/OBSERVABILITY.md) alongside the human table.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/stats.hpp"
#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/experiment.hpp"

namespace mcnet::bench {

/// Global scale knob: MCNET_BENCH_SCALE multiplies every run count
/// (default 1.0; use e.g. 0.1 for a smoke run, 5 for tighter statistics).
/// Non-finite or non-positive values are rejected (scale 1.0) instead of
/// being fed into run-count arithmetic.
inline double bench_scale() {
  if (const char* s = std::getenv("MCNET_BENCH_SCALE")) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end != s && std::isfinite(v) && v > 0.0) return v;
  }
  return 1.0;
}

inline std::uint32_t scaled_runs(std::uint32_t base) {
  const double v = static_cast<double>(base) * bench_scale();
  // Clamp before the double -> uint32_t cast: a huge MCNET_BENCH_SCALE
  // must saturate, not overflow into UB.  (!(v > 8.0) also catches NaN.)
  if (!(v > 8.0)) return 8u;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  if (v >= static_cast<double>(kMax)) return kMax;
  return static_cast<std::uint32_t>(v);
}

/// Scale a message-count style quantity the same way (clamped, UB-free).
inline std::uint64_t scaled_count(std::uint64_t base) {
  const double v = static_cast<double>(base) * bench_scale();
  if (!(v > 1.0)) return 1u;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  if (v >= static_cast<double>(kMax)) return kMax;
  return static_cast<std::uint64_t>(v);
}

// ---------------------------------------------------------------------------
// Structured JSON results
// ---------------------------------------------------------------------------

/// True unless MCNET_BENCH_JSON is "0", "off" or "none" (JSON output is on
/// by default; the knob exists for timing runs that must not touch disk).
inline bool json_output_enabled() {
  if (const char* s = std::getenv("MCNET_BENCH_JSON")) {
    const std::string v = s;
    if (v == "0" || v == "off" || v == "none") return false;
  }
  return true;
}

/// Collects series/points/histograms for one bench binary and writes a
/// schema-valid "mcnet-bench-v1" JSON file on destruction (or explicit
/// write()).  Output path: $MCNET_BENCH_JSON_DIR/<bench>.json, defaulting
/// to ./<bench>.json; set MCNET_BENCH_JSON=off to disable.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_(std::move(bench_name)), start_(std::chrono::steady_clock::now()) {}

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    if (!written_) (void)write();
  }

  /// Free-form metadata object ("topology", "params", ...).
  [[nodiscard]] obs::Json& meta() { return meta_; }

  /// Append one point (an object with at least finite "x" and "y") to the
  /// named series, creating the series on first use.
  void add_point(const std::string& series, obs::Json point) {
    for (auto& [name, points] : series_) {
      if (name == series) {
        points.push_back(std::move(point));
        return;
      }
    }
    series_.emplace_back(series, obs::Json::array());
    series_.back().second.push_back(std::move(point));
  }

  /// Record a named histogram summary (count/mean/min/max/p50/p90/p99).
  void add_histogram(const std::string& name, const obs::HistogramSnapshot& snapshot) {
    histograms_[name] = obs::histogram_to_json(snapshot);
  }

  /// Dump a whole registry (counters, gauges, histogram summaries) under
  /// the "metrics" key.
  void add_metrics(const obs::MetricsRegistry& registry) { metrics_ = registry.to_json(); }

  /// Reporter-owned registry: sweeps attach it to their simulations so a
  /// whole binary (multiple sweeps included) aggregates into one set of
  /// instruments, dumped automatically on write().
  [[nodiscard]] obs::MetricsRegistry& registry() {
    registry_used_ = true;
    return registry_;
  }

  /// The standard mapping of one dynamic-experiment result to a point.
  /// `ci_half_us` is NaN for invalid CIs and serialises as null, which is
  /// exactly what the schema demands when ci_valid is false.
  [[nodiscard]] static obs::Json dynamic_point(double x, const worm::DynamicResult& r) {
    obs::Json p = obs::Json::object();
    p["x"] = obs::Json(x);
    p["y"] = obs::Json(r.mean_latency_us);
    p["latency_us"] = obs::Json(r.mean_latency_us);
    p["ci_half_us"] = obs::Json(r.ci_half_us);
    p["ci_valid"] = obs::Json(r.ci_valid);
    p["completion_us"] = obs::Json(r.mean_completion_us);
    p["blocking_us"] = obs::Json(r.mean_blocking_us);
    p["utilization"] = obs::Json(r.utilization);
    p["deliveries"] = obs::Json(r.deliveries);
    p["messages_completed"] = obs::Json(r.messages_completed);
    p["messages_injected"] = obs::Json(r.messages_injected);
    p["sim_time_s"] = obs::Json(r.sim_time_s);
    p["converged"] = obs::Json(r.converged);
    p["saturated"] = obs::Json(r.saturated);
    return p;
  }

  [[nodiscard]] std::string path() const {
    if (const char* dir = std::getenv("MCNET_BENCH_JSON_DIR")) {
      return std::string(dir) + "/" + bench_ + ".json";
    }
    return bench_ + ".json";
  }

  /// Assemble and write the document.  Returns true on success (also when
  /// output is disabled); diagnostics go to stderr.
  bool write() {
    written_ = true;
    if (!json_output_enabled()) return true;
    if (registry_used_) {
      for (const char* name : {"network.delivery_latency_s", "network.grant_wait_s",
                               "network.channel_hold_s"}) {
        const obs::HistogramSnapshot snap = registry_.histogram(name).snapshot();
        if (snap.count > 0 && !histograms_.contains(name)) add_histogram(name, snap);
      }
      if (!metrics_.is_object()) add_metrics(registry_);
    }
    obs::Json doc = obs::Json::object();
    doc["schema"] = obs::Json(std::string(obs::kBenchSchemaName));
    doc["bench"] = obs::Json(bench_);
    doc["scale"] = obs::Json(bench_scale());
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    doc["wall_clock_s"] =
        obs::Json(std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count());
    obs::Json series = obs::Json::array();
    for (auto& [name, points] : series_) {
      obs::Json entry = obs::Json::object();
      entry["name"] = obs::Json(name);
      entry["points"] = std::move(points);
      series.push_back(std::move(entry));
    }
    doc["series"] = std::move(series);
    if (meta_.size() > 0) doc["meta"] = meta_;
    if (histograms_.size() > 0) doc["histograms"] = histograms_;
    if (metrics_.is_object()) doc["metrics"] = metrics_;

    const std::string file = path();
    std::FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json: cannot open %s for writing\n", file.c_str());
      return false;
    }
    const std::string text = doc.dump(2);
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                    std::fputc('\n', f) != EOF;
    const bool closed = std::fclose(f) == 0;
    if (ok && closed) {
      std::fprintf(stderr, "json: wrote %s\n", file.c_str());
      return true;
    }
    std::fprintf(stderr, "json: failed writing %s\n", file.c_str());
    return false;
  }

 private:
  std::string bench_;
  std::chrono::steady_clock::time_point start_;
  obs::Json meta_ = obs::Json::object();
  std::vector<std::pair<std::string, obs::Json>> series_;  // name -> points array
  obs::Json histograms_ = obs::Json::object();
  obs::Json metrics_;
  obs::MetricsRegistry registry_;
  bool registry_used_ = false;
  bool written_ = false;
};

// ---------------------------------------------------------------------------
// Static sweeps
// ---------------------------------------------------------------------------

/// Mean additional traffic (traffic - k) of `route_fn` over `runs` random
/// 1-to-k multicasts with uniformly random sources and destination sets.
template <typename RouteFn>
double mean_additional_traffic(const topo::Topology& t, std::uint32_t k, std::uint32_t runs,
                               std::uint64_t seed, const RouteFn& route_fn) {
  evsim::Rng rng(seed);
  double total = 0.0;
  for (std::uint32_t r = 0; r < runs; ++r) {
    const topo::NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
    const mcast::MulticastRequest req{src, rng.sample_destinations(t.num_nodes(), src, k)};
    total += static_cast<double>(route_fn(req).additional_traffic(k));
  }
  return total / runs;
}

/// One column of a static sweep: a named algorithm.
struct StaticSeries {
  std::string name;
  std::function<mcast::MulticastRoute(const mcast::MulticastRequest&)> route;
};

/// Standard static column: `algo` routed by make_router on `t`, named
/// after the algorithm.
inline StaticSeries static_series(const topo::Topology& t, mcast::Algorithm algo) {
  std::shared_ptr<const mcast::Router> router = mcast::make_router(t, algo);
  return {std::string(mcast::algorithm_name(algo)),
          [router](const mcast::MulticastRequest& req) { return router->route(req); }};
}

/// Print the paper-figure table: one row per destination count, one column
/// of mean additional traffic per series.  Run counts shrink for large k
/// (the estimator's variance shrinks as traffic concentrates) and scale
/// with MCNET_BENCH_SCALE.  When `json` is given, every cell also lands as
/// a point {x: k, y: mean, runs} in the like-named series.
inline void run_static_sweep(const std::string& title, const topo::Topology& t,
                             const std::vector<std::uint32_t>& ks,
                             const std::vector<StaticSeries>& series,
                             JsonReporter* json = nullptr, std::uint32_t base_runs = 1000,
                             std::uint64_t seed = 2026) {
  std::printf("%s\n", title.c_str());
  std::printf("topology: %s, %u nodes; mean additional traffic (traffic - k) over\n",
              t.name().c_str(), t.num_nodes());
  std::printf("uniform random multicast sets; base runs/point = %u (scale %.2f)\n\n",
              base_runs, bench_scale());
  if (json != nullptr) json->meta()["topology"] = obs::Json(t.name());
  std::printf("%8s %8s", "k", "runs");
  for (const auto& s : series) std::printf(" %18s", s.name.c_str());
  std::printf("\n");
  for (const std::uint32_t k : ks) {
    if (k >= t.num_nodes()) continue;
    const std::uint32_t runs =
        scaled_runs(k <= 100 ? base_runs : (k <= 400 ? base_runs / 3 : base_runs / 8));
    std::printf("%8u %8u", k, runs);
    for (std::size_t si = 0; si < series.size(); ++si) {
      const double mean = mean_additional_traffic(
          t, k, runs, evsim::derive_seed(seed, k * 131 + si), series[si].route);
      std::printf(" %18.1f", mean);
      if (json != nullptr) {
        obs::Json p = obs::Json::object();
        p["x"] = obs::Json(k);
        p["y"] = obs::Json(mean);
        p["runs"] = obs::Json(runs);
        json->add_point(series[si].name, std::move(p));
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Dynamic sweeps
// ---------------------------------------------------------------------------

/// One dynamic-sweep series: a router driving the wormhole simulator.
struct DynamicSeries {
  std::string name;
  std::shared_ptr<const mcast::Router> router;
};

/// Standard series: `algo` on `t` behind a shared route cache, so repeated
/// destination sets across a sweep's parallel simulations reuse routes.
inline DynamicSeries router_series(const topo::Topology& t, mcast::Algorithm algo,
                                   std::uint8_t copies) {
  return {std::string(mcast::algorithm_name(algo)),
          mcast::make_caching_router(t, algo, copies)};
}

/// Report cache effectiveness for every caching series of a finished sweep
/// (and, when `json` is given, record it under meta.route_cache.<series>).
inline void print_cache_stats(const std::vector<DynamicSeries>& series,
                              JsonReporter* json = nullptr) {
  for (const DynamicSeries& s : series) {
    const auto* caching = dynamic_cast<const mcast::CachingRouter*>(s.router.get());
    if (caching == nullptr) continue;
    const mcast::RouteCacheStats st = caching->stats();
    std::printf("route cache [%s]: %llu hits / %llu misses (%.1f%% hit rate)\n",
                s.name.c_str(), static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses), st.hit_rate() * 100.0);
    if (json != nullptr) {
      obs::Json& entry = json->meta()["route_cache"][s.name];
      entry = obs::Json::object();
      entry["hits"] = obs::Json(st.hits);
      entry["misses"] = obs::Json(st.misses);
      entry["evictions"] = obs::Json(st.evictions);
      entry["hit_rate"] = obs::Json(st.hit_rate());
    }
  }
  std::printf("\n");
}

struct DynamicSweepConfig {
  worm::WormholeParams params;
  std::uint32_t avg_destinations = 10;
  std::uint64_t seed = 7;
  std::uint64_t target_messages = 1500;
  std::uint64_t max_messages = 6000;
  double max_sim_time_s = 0.25;
  std::uint32_t batch_size = 800;
};

namespace detail {

inline void fill_common(worm::DynamicConfig& dc, const DynamicSweepConfig& cfg,
                        obs::MetricsRegistry* metrics) {
  dc.params = cfg.params;
  dc.target_messages = scaled_count(cfg.target_messages);
  dc.max_messages = scaled_count(cfg.max_messages);
  dc.max_sim_time_s = cfg.max_sim_time_s * bench_scale();
  // Size batches so ~25 of them fit in the expected delivery count.
  const std::uint64_t expected_deliveries = dc.target_messages * dc.traffic.avg_destinations;
  dc.batch_size = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(expected_deliveries / 25, 20, cfg.batch_size));
  dc.metrics = metrics;
}

}  // namespace detail

/// Latency-vs-load sweep (Figures 7.8 / 7.10): rows are per-node message
/// interarrival times, columns are algorithms; cells are mean
/// per-destination latency in microseconds ("sat" marks saturation).
/// JSON series are named "load:<algorithm>" with x = interarrival_us.
inline void run_dynamic_load_sweep(const std::string& title, const topo::Topology& t,
                                   const std::vector<double>& interarrivals_us,
                                   const std::vector<DynamicSeries>& series,
                                   const DynamicSweepConfig& cfg,
                                   JsonReporter* json = nullptr) {
  std::printf("%s\n", title.c_str());
  std::printf(
      "topology: %s; %u-flit messages, %.0f ns/flit, %u channel copies,\n"
      "avg %u destinations/multicast; mean per-destination latency (us)\n\n",
      t.name().c_str(), cfg.params.message_flits, cfg.params.flit_time * 1e9,
      cfg.params.channel_copies, cfg.avg_destinations);
  std::printf("%16s", "interarrival_us");
  for (const auto& s : series) std::printf(" %20s", s.name.c_str());
  std::printf("\n");

  // The reporter's registry serves the whole sweep: the per-point
  // simulations run in parallel and aggregate into the same (thread-safe)
  // instruments.
  obs::MetricsRegistry* metrics =
      (json != nullptr && json_output_enabled()) ? &json->registry() : nullptr;

  // All (load, algorithm) points are independent simulations; spread them
  // over hardware threads.
  const std::size_t n_points = interarrivals_us.size() * series.size();
  std::vector<worm::DynamicResult> results(n_points);
  worm::parallel_for(n_points, [&](std::size_t idx) {
    const std::size_t li = idx / series.size();
    const std::size_t si = idx % series.size();
    worm::DynamicConfig dc;
    dc.traffic = {.mean_interarrival_s = interarrivals_us[li] * 1e-6,
                  .avg_destinations = cfg.avg_destinations,
                  .fixed_destinations = false,
                  .exponential_interarrival = false,
                  .seed = evsim::derive_seed(cfg.seed, idx)};
    detail::fill_common(dc, cfg, metrics);
    results[idx] = worm::run_dynamic(*series[si].router, dc);
  });

  for (std::size_t li = 0; li < interarrivals_us.size(); ++li) {
    std::printf("%16.0f", interarrivals_us[li]);
    for (std::size_t si = 0; si < series.size(); ++si) {
      const worm::DynamicResult& r = results[li * series.size() + si];
      std::printf(" %15.2f%-5s", r.mean_latency_us, r.saturated ? " sat" : "");
      if (json != nullptr) {
        json->add_point("load:" + series[si].name,
                        JsonReporter::dynamic_point(interarrivals_us[li], r));
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
  print_cache_stats(series, json);
  if (json != nullptr) json->meta()["topology"] = obs::Json(t.name());
}

/// Latency-vs-destination-count sweep (Figures 7.9 / 7.11).  JSON series
/// are named "dests:<algorithm>" with x = avg destination count.
inline void run_dynamic_dest_sweep(const std::string& title, const topo::Topology& t,
                                   double interarrival_us,
                                   const std::vector<std::uint32_t>& dest_counts,
                                   const std::vector<DynamicSeries>& series,
                                   DynamicSweepConfig cfg, JsonReporter* json = nullptr) {
  std::printf("%s\n", title.c_str());
  std::printf(
      "topology: %s; %u-flit messages, %.0f ns/flit, %u channel copies,\n"
      "interarrival %.0f us/node; mean per-destination latency (us)\n\n",
      t.name().c_str(), cfg.params.message_flits, cfg.params.flit_time * 1e9,
      cfg.params.channel_copies, interarrival_us);
  std::printf("%12s", "avg_dests");
  for (const auto& s : series) std::printf(" %20s", s.name.c_str());
  std::printf("\n");

  obs::MetricsRegistry* metrics =
      (json != nullptr && json_output_enabled()) ? &json->registry() : nullptr;

  const std::size_t n_points = dest_counts.size() * series.size();
  std::vector<worm::DynamicResult> results(n_points);
  worm::parallel_for(n_points, [&](std::size_t idx) {
    const std::size_t di = idx / series.size();
    const std::size_t si = idx % series.size();
    worm::DynamicConfig dc;
    dc.traffic = {.mean_interarrival_s = interarrival_us * 1e-6,
                  .avg_destinations = dest_counts[di],
                  .fixed_destinations = true,  // exact destination count per row
                  .exponential_interarrival = false,
                  .seed = evsim::derive_seed(cfg.seed, idx)};
    detail::fill_common(dc, cfg, metrics);
    results[idx] = worm::run_dynamic(*series[si].router, dc);
  });

  for (std::size_t di = 0; di < dest_counts.size(); ++di) {
    std::printf("%12u", dest_counts[di]);
    for (std::size_t si = 0; si < series.size(); ++si) {
      const worm::DynamicResult& r = results[di * series.size() + si];
      std::printf(" %15.2f%-5s", r.mean_latency_us, r.saturated ? " sat" : "");
      if (json != nullptr) {
        json->add_point("dests:" + series[si].name,
                        JsonReporter::dynamic_point(dest_counts[di], r));
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
  print_cache_stats(series, json);
  if (json != nullptr) json->meta()["topology"] = obs::Json(t.name());
}

}  // namespace mcnet::bench
