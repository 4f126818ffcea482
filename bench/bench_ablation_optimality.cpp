// Ablation: how far are the Chapter 5/6 heuristics from the true optimum?
// Chapter 4 proves the optimal problems NP-complete, so the paper never
// quantifies the gap; on small instances the exact solvers of core/exact
// make the measurement possible.  Reported per model:
//   MP  : sorted-MP traffic / Held-Karp optimal-walk bound
//   MC  : sorted-MC traffic / optimal-cycle bound
//   ST  : greedy-ST traffic / Dreyfus-Wagner optimum
//   MS  : dual-/multi-path traffic / optimal-star bound
#include "bench_common.hpp"
#include "core/exact.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using mcast::MulticastRequest;

template <typename Heuristic, typename Optimal>
std::pair<double, double> gap(const topo::Topology& t, std::uint32_t k, std::uint32_t runs,
                              std::uint64_t seed, const Heuristic& heuristic,
                              const Optimal& optimal) {
  evsim::Rng rng(seed);
  double ratio_sum = 0.0, worst = 0.0;
  for (std::uint32_t r = 0; r < runs; ++r) {
    const topo::NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
    const MulticastRequest req{src, rng.sample_destinations(t.num_nodes(), src, k)};
    const double h = static_cast<double>(heuristic(req));
    const double o = static_cast<double>(optimal(req));
    const double ratio = o > 0 ? h / o : 1.0;
    ratio_sum += ratio;
    worst = std::max(worst, ratio);
  }
  return {ratio_sum / runs, worst};
}

void add_gap_point(bench::JsonReporter& json, const std::string& series, std::uint32_t k,
                   std::uint32_t runs, double mean, double worst) {
  obs::Json p = obs::Json::object();
  p["x"] = obs::Json(k);
  p["y"] = obs::Json(mean);
  p["worst"] = obs::Json(worst);
  p["runs"] = obs::Json(runs);
  json.add_point(series, std::move(p));
}

void run(const char* title, const char* prefix, const topo::Topology& t,
         bench::JsonReporter& json) {
  const auto mp = mcast::make_router(t, Algorithm::kSortedMP);
  const auto mc = mcast::make_router(t, Algorithm::kSortedMC);
  const auto st = mcast::make_router(t, Algorithm::kGreedyST);
  const auto ms = mcast::make_router(t, Algorithm::kDualPath);
  const std::uint32_t runs = bench::scaled_runs(120);
  std::printf("%s (runs/point = %u)\n", title, runs);
  std::printf("%4s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n", "k", "MP mean", "worst",
              "MC mean", "worst", "ST mean", "worst", "MS mean", "worst");
  for (const std::uint32_t k : {2u, 4u, 6u, 8u}) {
    const auto [mp_mean, mp_worst] = gap(
        t, k, runs, 11 * k,
        [&](const MulticastRequest& r) { return mp->route(r).traffic(); },
        [&](const MulticastRequest& r) { return mcast::exact::multicast_path_optimum_bound(t, r); });
    const auto [mc_mean, mc_worst] = gap(
        t, k, runs, 13 * k,
        [&](const MulticastRequest& r) { return mc->route(r).traffic(); },
        [&](const MulticastRequest& r) { return mcast::exact::multicast_cycle_optimum_bound(t, r); });
    const auto [st_mean, st_worst] = gap(
        t, k, runs, 17 * k,
        [&](const MulticastRequest& r) { return st->route(r).traffic(); },
        [&](const MulticastRequest& r) { return mcast::exact::steiner_tree_optimum(t, r); });
    const auto [ms_mean, ms_worst] = gap(
        t, k, runs, 19 * k,
        [&](const MulticastRequest& r) { return ms->route(r).traffic(); },
        [&](const MulticastRequest& r) { return mcast::exact::multicast_star_optimum_bound(t, r); });
    std::printf("%4u | %9.3f %9.3f | %9.3f %9.3f | %9.3f %9.3f | %9.3f %9.3f\n", k,
                mp_mean, mp_worst, mc_mean, mc_worst, st_mean, st_worst, ms_mean, ms_worst);
    add_gap_point(json, std::string(prefix) + ":MP", k, runs, mp_mean, mp_worst);
    add_gap_point(json, std::string(prefix) + ":MC", k, runs, mc_mean, mc_worst);
    add_gap_point(json, std::string(prefix) + ":ST", k, runs, st_mean, st_worst);
    add_gap_point(json, std::string(prefix) + ":MS", k, runs, ms_mean, ms_worst);
    std::fflush(stdout);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  mcnet::bench::JsonReporter json("bench_ablation_optimality");
  {
    const topo::Mesh2D mesh(8, 8);
    run("=== Ablation: heuristic / optimal traffic ratio, 8x8 mesh ===", "mesh", mesh, json);
  }
  {
    const topo::Hypercube cube(6);
    run("=== Ablation: heuristic / optimal traffic ratio, 6-cube ===", "cube", cube, json);
  }
  return 0;
}
