// mcnet_sim -- command-line driver for static and dynamic multicast
// experiments on any supported topology.
//
// Examples:
//   mcnet_sim --topology mesh:16x16 --algorithm dual-path --dests 10 --static
//   mcnet_sim --topology cube:6 --algorithm multi-path --dests 15
//             --interarrival-us 300 --messages 2000
//   mcnet_sim --topology mesh3:4x4x4 --algorithm fixed-path --dests 8 --static
//   mcnet_sim --topology kary:4x3 --algorithm dual-path --dests 6 --static --csv
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "arg_parser.hpp"
#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topology/spec.hpp"
#include "wormhole/experiment.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

struct Instance {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<mcast::CachingRouter> router;
};

Instance make_instance(const std::string& spec, Algorithm algo, std::uint8_t copies) {
  Instance inst;
  inst.topology = topo::make_topology(spec);
  inst.router = mcast::make_caching_router(*inst.topology, algo, copies);
  return inst;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tools::ArgParser args(argc, argv);
    const std::string topo_spec =
        args.get("topology", "mesh:8x8",
                 "mesh:WxH | cube:N | mesh3:XxYxZ | kary:KxN | karymesh:KxN");
    const std::string algo_name = args.get("algorithm", "dual-path",
                                           "routing algorithm (see README)");
    const auto dests = static_cast<std::uint32_t>(args.get_int("dests", 10, "destinations"));
    const auto runs = static_cast<std::uint32_t>(
        args.get_int("runs", 1000, "random multicast sets (static mode)"));
    const bool static_mode = args.get_flag("static", "measure static traffic only");
    const double interarrival_us =
        args.get_double("interarrival-us", 300.0, "mean per-node interarrival (dynamic)");
    const auto messages =
        static_cast<std::uint64_t>(args.get_int("messages", 2000, "target messages (dynamic)"));
    const auto copies =
        static_cast<std::uint8_t>(args.get_int("copies", 1, "channel copies per link"));
    const auto flits = static_cast<std::uint32_t>(
        args.get_int("flits", 128, "message length in flits (dynamic)"));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2026, "random seed"));
    const bool csv = args.get_flag("csv", "machine-readable output");
    const std::string trace_path =
        args.get("trace", "", "write a Chrome/Perfetto trace of the dynamic run (dynamic)");
    const bool metrics_dump =
        args.get_flag("metrics", "dump the metrics registry as JSON after the run (dynamic)");
    if (args.help_requested()) {
      args.print_usage();
      return 0;
    }
    args.reject_unknown();

    const Algorithm algo = mcast::parse_algorithm(algo_name);
    const Instance inst = make_instance(topo_spec, algo, copies);
    const std::uint32_t n = inst.topology->num_nodes();
    if (dests >= n) throw std::invalid_argument("dests must be < number of nodes");

    if (static_mode) {
      evsim::Rng rng(seed);
      double traffic = 0.0, additional = 0.0, max_hops = 0.0;
      for (std::uint32_t r = 0; r < runs; ++r) {
        const topo::NodeId src = rng.uniform_int(0, n - 1);
        const mcast::MulticastRoute route = inst.router->route(
            mcast::MulticastRequest{src, rng.sample_destinations(n, src, dests)});
        traffic += static_cast<double>(route.traffic());
        additional += static_cast<double>(route.additional_traffic(dests));
        max_hops += route.max_delivery_hops();
      }
      if (csv) {
        std::printf("topology,algorithm,dests,runs,traffic,additional,max_hops\n");
        std::printf("%s,%s,%u,%u,%.2f,%.2f,%.2f\n", inst.topology->name().c_str(),
                    algo_name.c_str(), dests, runs, traffic / runs, additional / runs,
                    max_hops / runs);
      } else {
        std::printf("%s, %s, k=%u (%u runs)\n", inst.topology->name().c_str(),
                    algo_name.c_str(), dests, runs);
        std::printf("  mean traffic:            %.2f channels\n", traffic / runs);
        std::printf("  mean additional traffic: %.2f channels\n", additional / runs);
        std::printf("  mean max delivery depth: %.2f hops\n", max_hops / runs);
      }
      return 0;
    }

    worm::DynamicConfig cfg;
    cfg.params = {.flit_time = 50e-9, .message_flits = flits, .channel_copies = copies};
    cfg.traffic = {.mean_interarrival_s = interarrival_us * 1e-6,
                   .avg_destinations = dests,
                   .fixed_destinations = false,
                   .exponential_interarrival = false,
                   .seed = seed};
    cfg.target_messages = messages;
    cfg.max_messages = messages * 4;
    cfg.max_sim_time_s = 2.0;

    obs::MetricsRegistry registry;
    if (metrics_dump) {
      cfg.metrics = &registry;
      inst.router->set_metrics(&registry);
    }
    std::unique_ptr<obs::EventTracer> tracer;
    if (!trace_path.empty()) {
      tracer = std::make_unique<obs::EventTracer>();
      cfg.tracer = tracer.get();
    }

    const worm::DynamicResult r = run_dynamic(*inst.router, cfg);
    const mcast::RouteCacheStats cache = inst.router->stats();
    if (csv) {
      std::printf(
          "topology,algorithm,dests,interarrival_us,latency_us,ci_us,ci_valid,"
          "completion_us,deliveries,messages,converged,saturated\n");
      std::printf("%s,%s,%u,%.1f,%.3f,%.3f,%d,%.3f,%llu,%llu,%d,%d\n",
                  inst.topology->name().c_str(), algo_name.c_str(), dests, interarrival_us,
                  r.mean_latency_us, r.ci_valid ? r.ci_half_us : std::nan(""), r.ci_valid,
                  r.mean_completion_us, static_cast<unsigned long long>(r.deliveries),
                  static_cast<unsigned long long>(r.messages_completed), r.converged,
                  r.saturated);
    } else {
      std::printf("%s, %s, avg %u dests, %.0f us interarrival\n",
                  inst.topology->name().c_str(), algo_name.c_str(), dests, interarrival_us);
      if (r.ci_valid) {
        std::printf("  mean latency:     %.2f us (95%% CI +/- %.2f)\n", r.mean_latency_us,
                    r.ci_half_us);
      } else {
        std::printf("  mean latency:     %.2f us (CI unavailable: too few batches)\n",
                    r.mean_latency_us);
      }
      std::printf("  mean completion:  %.2f us\n", r.mean_completion_us);
      std::printf("  deliveries:       %llu over %llu messages\n",
                  static_cast<unsigned long long>(r.deliveries),
                  static_cast<unsigned long long>(r.messages_completed));
      std::printf("  converged: %s, saturated: %s\n", r.converged ? "yes" : "no",
                  r.saturated ? "yes" : "no");
      std::printf("  route cache:      %llu hits / %llu misses (%.1f%% hit rate)\n",
                  static_cast<unsigned long long>(cache.hits),
                  static_cast<unsigned long long>(cache.misses), cache.hit_rate() * 100.0);
    }
    if (tracer != nullptr) {
      if (!tracer->write_file(trace_path)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n", trace_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: wrote %zu events to %s%s\n", tracer->size(),
                   trace_path.c_str(),
                   tracer->dropped() > 0 ? " (buffer full, some events dropped)" : "");
    }
    if (metrics_dump) {
      std::printf("%s\n", registry.to_json().dump(2).c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n(run with --help for usage)\n", e.what());
    return 1;
  }
}
