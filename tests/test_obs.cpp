// Observability layer: JSON document type, metrics instruments and their
// percentile math, trace output format, and the bench result schema.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/experiment.hpp"

namespace {

using namespace mcnet;
using obs::Histogram;
using obs::Json;

// --------------------------------------------------------------------------
// Json
// --------------------------------------------------------------------------

TEST(Json, BuildsAndDumpsDocuments) {
  Json doc = Json::object();
  doc["name"] = Json("bench");
  doc["count"] = Json(3);
  doc["ok"] = Json(true);
  doc["nothing"] = Json(nullptr);
  Json arr = Json::array();
  arr.push_back(Json(1.5));
  arr.push_back(Json("two"));
  doc["items"] = arr;
  EXPECT_EQ(doc.dump(),
            R"({"name":"bench","count":3,"ok":true,"nothing":null,"items":[1.5,"two"]})");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json doc = Json::object();
  doc["nan"] = Json(std::numeric_limits<double>::quiet_NaN());
  doc["inf"] = Json(std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc.dump(), R"({"nan":null,"inf":null})");
}

TEST(Json, RoundTripsThroughParse) {
  const std::string text =
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny\"z\\", "d": false}, "e": null})";
  std::string error;
  const auto doc = Json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto again = Json::parse(doc->dump(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(doc->dump(), again->dump());
  EXPECT_DOUBLE_EQ(doc->find("a")->at(2).as_double(), -300.0);
  EXPECT_EQ(doc->find("b")->find("c")->as_string(), "x\ny\"z\\");
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\":1} x",
                          "\"unterminated", "{'a':1}"}) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, ParseRejectsNestingDeeperThanTheLimit) {
  // Containers parse by recursion: nesting past 256 levels must fail with
  // a named error at the offending bracket, never overflow the stack.
  const std::string unterminated(100000, '[');
  const std::string balanced = unterminated + std::string(100000, ']');
  const std::string objects = [] {
    std::string text;
    for (int i = 0; i < 100000; ++i) text += "{\"a\":";
    return text;
  }();
  for (const std::string* doc : {&unterminated, &balanced, &objects}) {
    std::string error;
    EXPECT_FALSE(Json::parse(*doc, &error).has_value());
    EXPECT_NE(error.find("nesting deeper than 256 levels"), std::string::npos) << error;
    const std::size_t offset = doc == &objects ? 256 * 5 : 256;
    EXPECT_NE(error.find("(at byte " + std::to_string(offset) + ")"), std::string::npos)
        << error;
  }

  const std::string deepest = std::string(256, '[') + std::string(256, ']');
  std::string error;
  const auto doc = Json::parse(deepest, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->dump(), deepest);
  EXPECT_FALSE(Json::parse("[" + deepest + "]", &error).has_value());
}

TEST(Json, ParseHandlesUnicodeEscapes) {
  const auto doc = Json::parse("\"a\\u0041\\u00e9b\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(),
            "aA\xc3\xa9"
            "b");  // A = 'A', é = e-acute in UTF-8
}

// --------------------------------------------------------------------------
// Histogram / registry
// --------------------------------------------------------------------------

TEST(Histogram, BucketIndexIsMonotoneAndBounded) {
  std::size_t prev = 0;
  for (double v = Histogram::kMinValue; v < 20.0; v *= 1.05) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_GE(i, prev);
    EXPECT_LT(i, Histogram::kNumBuckets);
    prev = i;
  }
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kNumBuckets - 1);
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  for (double v : {2e-9, 1e-6, 3.7e-4, 0.42, 1.0, 17.0}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower(i), v) << v;
    EXPECT_GT(Histogram::bucket_upper(i), v) << v;
  }
}

TEST(Histogram, SingleSamplePercentilesAreExact) {
  Histogram h;
  h.record(3.5e-4);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.5e-4);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 3.5e-4);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.5e-4);
  EXPECT_DOUBLE_EQ(s.max, 3.5e-4);
}

TEST(Histogram, PercentilesTrackUniformDataWithinBucketError) {
  Histogram h;
  const int n = 10000;
  for (int i = 1; i <= n; ++i) h.record(i * 1e-6);  // uniform on (0, 10ms]
  // Log-bucketing with 8 buckets/octave bounds relative error by
  // 2^(1/8) - 1 ~ 9 %.
  const double tolerance = 0.095;
  EXPECT_NEAR(h.percentile(0.5), 5e-3, 5e-3 * tolerance);
  EXPECT_NEAR(h.percentile(0.9), 9e-3, 9e-3 * tolerance);
  EXPECT_NEAR(h.percentile(0.99), 9.9e-3, 9.9e-3 * tolerance);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(n));
  EXPECT_NEAR(h.sum(), n * (n + 1) / 2 * 1e-6, 1e-6);
}

TEST(Histogram, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(MetricsRegistry, ReturnsStableReferencesByName) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  a.inc(2);
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_EQ(reg.counter("x").value(), 2u);
  obs::Gauge& g = reg.gauge("busy");
  g.add(1.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("busy").value(), 2.0);
  EXPECT_EQ(&reg.histogram("h"), &reg.histogram("h"));
}

TEST(MetricsRegistry, ConcurrentRecordingIsLossless) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("events");
  obs::Histogram& h = reg.histogram("lat");
  std::vector<std::thread> workers;
  constexpr int kThreads = 4, kPer = 5000;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        c.inc();
        h.record(1e-6);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPer));
}

TEST(MetricsRegistry, DumpsStructuredJson) {
  obs::MetricsRegistry reg;
  reg.counter("n.count").inc(7);
  reg.gauge("n.busy").set(0.5);
  reg.histogram("n.lat").record(2e-6);
  const Json j = reg.to_json();
  ASSERT_TRUE(j.is_object());
  EXPECT_DOUBLE_EQ(j.find("counters")->find("n.count")->as_double(), 7.0);
  EXPECT_DOUBLE_EQ(j.find("gauges")->find("n.busy")->as_double(), 0.5);
  const Json* hist = j.find("histograms")->find("n.lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(hist->find("p50")->as_double(), 2e-6);
}

// --------------------------------------------------------------------------
// Network metrics + tracer wiring (through run_dynamic)
// --------------------------------------------------------------------------

worm::DynamicConfig small_config() {
  worm::DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 16, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 100e-6,
                 .avg_destinations = 3,
                 .fixed_destinations = true,
                 .exponential_interarrival = false,
                 .seed = 11};
  cfg.target_messages = 40;
  cfg.max_messages = 200;
  cfg.max_sim_time_s = 0.5;
  cfg.batch_size = 10;
  return cfg;
}

TEST(NetworkMetrics, CountsMatchExperimentResult) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_caching_router(mesh, mcast::Algorithm::kDualPath, 1);
  obs::MetricsRegistry reg;
  worm::DynamicConfig cfg = small_config();
  cfg.metrics = &reg;
  router->set_metrics(&reg);
  const worm::DynamicResult r = worm::run_dynamic(*router, cfg);
  EXPECT_EQ(reg.counter("network.deliveries").value(), r.deliveries);
  EXPECT_GE(reg.counter("network.injections").value(), r.messages_completed);
  EXPECT_EQ(reg.histogram("network.delivery_latency_s").count(), r.deliveries);
  // Histogram records seconds; the mean must agree with the result's us.
  const double mean_s = reg.histogram("network.delivery_latency_s").snapshot().mean();
  EXPECT_NEAR(mean_s * 1e6, r.mean_latency_us, r.mean_latency_us * 0.01 + 1e-9);
  const auto& cache_hits = reg.counter("route_cache.hits");
  const auto& cache_misses = reg.counter("route_cache.misses");
  EXPECT_EQ(cache_hits.value() + cache_misses.value(),
            router->stats().hits + router->stats().misses);
}

TEST(EventTracer, ProducesParseableChromeTrace) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_caching_router(mesh, mcast::Algorithm::kDualPath, 1);
  obs::EventTracer tracer;
  worm::DynamicConfig cfg = small_config();
  cfg.tracer = &tracer;
  const worm::DynamicResult r = worm::run_dynamic(*router, cfg);
  ASSERT_GT(r.deliveries, 0u);
  EXPECT_GT(tracer.size(), 0u);

  std::string error;
  const auto doc = Json::parse(tracer.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);

  bool saw_metadata = false, saw_complete = false, saw_instant = false;
  for (const Json& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    ASSERT_TRUE(e.contains("name"));
    ASSERT_TRUE(e.contains("pid"));
    ASSERT_TRUE(e.contains("tid"));
    if (ph == "M") {
      saw_metadata = true;
    } else if (ph == "X") {
      saw_complete = true;
      EXPECT_GE(e.find("dur")->as_double(), 0.0);
      EXPECT_GE(e.find("ts")->as_double(), 0.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.find("s")->as_string(), "t");
    }
  }
  EXPECT_TRUE(saw_metadata);   // process/thread names for the lanes
  EXPECT_TRUE(saw_complete);   // channel occupancy slices
  EXPECT_TRUE(saw_instant);    // injections/deliveries
}

TEST(EventTracer, BoundedBufferDropsInsteadOfGrowing) {
  obs::EventTracer tracer(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) tracer.instant("e", "cat", i * 1e-6, 1, 1);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto doc = Json::parse(tracer.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traceEvents")->size(), 4u);
}

// --------------------------------------------------------------------------
// Bench schema
// --------------------------------------------------------------------------

Json valid_bench_doc() {
  std::string error;
  auto doc = Json::parse(R"({
    "schema": "mcnet-bench-v1",
    "bench": "bench_test",
    "scale": 1.0,
    "wall_clock_s": 0.5,
    "series": [
      {"name": "algo", "points": [
        {"x": 1, "y": 2.5},
        {"x": 2, "y": 3.5, "ci_half_us": 0.25, "ci_valid": true},
        {"x": 3, "y": 4.5, "ci_half_us": null, "ci_valid": false}
      ]}
    ]
  })",
                         &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return *doc;
}

TEST(BenchSchema, AcceptsValidDocument) {
  std::string error;
  EXPECT_TRUE(obs::validate_bench_json(valid_bench_doc(), &error)) << error;
}

TEST(BenchSchema, RejectsBrokenDocuments) {
  struct Case {
    const char* what;
    std::function<void(Json&)> breakit;
  };
  const std::vector<Case> cases = {
      {"wrong schema", [](Json& d) { d["schema"] = Json("other-v2"); }},
      {"missing bench", [](Json& d) { d["bench"] = Json(nullptr); }},
      {"series not array", [](Json& d) { d["series"] = Json("nope"); }},
      {"negative scale", [](Json& d) { d["scale"] = Json(-1.0); }},
      {"nan wall clock",
       [](Json& d) { d["wall_clock_s"] = Json(std::numeric_limits<double>::quiet_NaN()); }},
  };
  for (const auto& c : cases) {
    Json doc = valid_bench_doc();
    c.breakit(doc);
    std::string error;
    EXPECT_FALSE(obs::validate_bench_json(doc, &error)) << c.what;
    EXPECT_FALSE(error.empty()) << c.what;
  }
}

TEST(BenchSchema, EnforcesCiValidityRules) {
  // ci_valid: true with a null ci_half_us is a contradiction.
  Json doc = Json::parse(R"({
    "schema": "mcnet-bench-v1", "bench": "b", "scale": 1, "wall_clock_s": 0, "series": [
      {"name": "s", "points": [{"x": 1, "y": 2, "ci_valid": true, "ci_half_us": null}]}
    ]})")
                 .value();
  std::string error;
  EXPECT_FALSE(obs::validate_bench_json(doc, &error));
  EXPECT_NE(error.find("ci_valid"), std::string::npos) << error;

  // ci_valid: false with a numeric ci_half_us is equally contradictory.
  doc = Json::parse(R"({
    "schema": "mcnet-bench-v1", "bench": "b", "scale": 1, "wall_clock_s": 0, "series": [
      {"name": "s", "points": [{"x": 1, "y": 2, "ci_valid": false, "ci_half_us": 0.5}]}
    ]})")
            .value();
  EXPECT_FALSE(obs::validate_bench_json(doc, &error));
  EXPECT_NE(error.find("ci_valid"), std::string::npos) << error;

  // A point without x/y is invalid.
  doc = Json::parse(R"({
    "schema": "mcnet-bench-v1", "bench": "b", "scale": 1, "wall_clock_s": 0, "series": [
      {"name": "s", "points": [{"y": 2}]}
    ]})")
            .value();
  EXPECT_FALSE(obs::validate_bench_json(doc, &error));
  EXPECT_NE(error.find("\"x\""), std::string::npos) << error;
}

}  // namespace
