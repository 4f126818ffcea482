// google-benchmark microbenchmarks backing the complexity claims of
// Chapters 5-6: O(k log k) message preparation, O(k^2) greedy-ST tree
// construction, and per-multicast routing costs of every algorithm.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/dual_path.hpp"
#include "evsim/random.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

const topo::Mesh2D& big_mesh() {
  static const topo::Mesh2D mesh(32, 32);
  return mesh;
}
const topo::Hypercube& big_cube() {
  static const topo::Hypercube cube(10);
  return cube;
}

mcast::MulticastRequest random_request(const topo::Topology& t, std::uint32_t k,
                                       std::uint64_t seed) {
  evsim::Rng rng(seed);
  const topo::NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
  return {src, rng.sample_destinations(t.num_nodes(), src, k)};
}

void BM_DualPathPrepare(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto req = random_request(big_mesh(), k, 1);
  const ham::MeshBoustrophedonLabeling lab(big_mesh());
  mcast::DualPathSplit split;
  for (auto _ : state) {
    mcast::dual_path_prepare(lab, req, split);
    benchmark::DoNotOptimize(split);
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_DualPathPrepare)->RangeMultiplier(4)->Range(4, 512)->Complexity();

template <Algorithm A>
void BM_MeshRoute(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto req = random_request(big_mesh(), k, 2);
  const auto router = mcast::make_router(big_mesh(), A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router->route(req));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_MeshRoute<Algorithm::kSortedMP>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_MeshRoute<Algorithm::kGreedyST>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_MeshRoute<Algorithm::kXFirstMT>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_MeshRoute<Algorithm::kDividedGreedyMT>)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();
BENCHMARK(BM_MeshRoute<Algorithm::kDualPath>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_MeshRoute<Algorithm::kMultiPath>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_MeshRoute<Algorithm::kFixedPath>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_MeshRoute<Algorithm::kDCXFirstTree>)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

template <Algorithm A>
void BM_CubeRoute(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto req = random_request(big_cube(), k, 3);
  const auto router = mcast::make_router(big_cube(), A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router->route(req));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_CubeRoute<Algorithm::kSortedMP>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_CubeRoute<Algorithm::kGreedyST>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_CubeRoute<Algorithm::kLenTree>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_CubeRoute<Algorithm::kDualPath>)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_CubeRoute<Algorithm::kMultiPath>)->RangeMultiplier(4)->Range(4, 256)->Complexity();

// Console output forwarded unchanged; per-iteration runs also land in the
// shared JSON report as series "<benchmark>" with x = problem size (the
// SetComplexityN value) and y = adjusted real time per iteration (ns).
class JsonForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardingReporter(mcnet::bench::JsonReporter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    if (json_ == nullptr) return;
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      const std::string series = name.substr(0, name.find('/'));
      mcnet::obs::Json p = mcnet::obs::Json::object();
      p["x"] = mcnet::obs::Json(static_cast<double>(run.complexity_n));
      p["y"] = mcnet::obs::Json(run.GetAdjustedRealTime());
      p["iterations"] = mcnet::obs::Json(run.iterations);
      json_->add_point(series, std::move(p));
    }
  }

 private:
  mcnet::bench::JsonReporter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  mcnet::bench::JsonReporter json("bench_micro_algorithms");
  JsonForwardingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
