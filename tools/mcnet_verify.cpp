// mcnet_verify: static deadlock-freedom and routing-invariant analyzer.
//
// Without running the simulator, enumerate the channel dependencies a
// multicast algorithm induces over a topology, search the resulting CDG
// for multi-instance cycles (deadlock witnesses, shrunk to a minimal set
// of concurrent multicasts), and sweep the per-router invariants the
// algorithm claims.  Unicast routing functions are checked through the
// classic Dally-Seitz construction.  Adaptive routing relations
// (--relation) are explored over every legal choice and certified either
// by CDG acyclicity or by the escape-channel sufficient condition
// (--escape-channels demands the latter).  --json emits one structured
// mcnet-verify-v1 document instead of text.
//
// Exit codes: 0 = verdict matches --expect (or no expectation given),
//             2 = verdict contradicts --expect, 1 = usage/setup error.
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariants.hpp"
#include "analysis/mcdg.hpp"
#include "analysis/relation.hpp"
#include "analysis/report.hpp"
#include "analysis/scenario.hpp"
#include "arg_parser.hpp"
#include "cdg/analyzers.hpp"
#include "cdg/channel_graph.hpp"
#include "core/router.hpp"
#include "obs/json.hpp"

namespace {

using namespace mcnet;

// One analyzed scenario: its verdict plus the --json report entry.
struct Outcome {
  std::string name;
  bool clean = false;
  std::string label;
  bool claimed_clean = true;  // drives --expect auto
  obs::Json json;
};

// Unicast routing functions addressable by name; checked via the plain
// Dally-Seitz CDG instead of the multicast instance enumeration.
std::optional<cdg::RoutingFunction> unicast_routing(const analysis::Fixture& f,
                                                    const std::string& name) {
  if (name == "xfirst" && f.mesh2d != nullptr) return cdg::xfirst_routing(*f.mesh2d);
  if (name == "ecube" && f.cube != nullptr) return cdg::ecube_routing(*f.cube);
  if (name == "zfirst" && f.mesh3d != nullptr) return cdg::zfirst_routing(*f.mesh3d);
  if (name == "dimension-order" && f.kary != nullptr) {
    return cdg::dimension_order_routing(*f.kary);
  }
  if ((name == "label-high" || name == "label-low") && f.labeling != nullptr) {
    return cdg::label_routing(*f.topology, *f.labeling, name == "label-high");
  }
  return std::nullopt;
}

bool is_unicast_name(const std::string& name) {
  return name == "xfirst" || name == "ecube" || name == "zfirst" ||
         name == "dimension-order" || name == "label-high" || name == "label-low";
}

Outcome verify_unicast(const analysis::Fixture& f, const std::string& name, bool quiet) {
  const auto routing = unicast_routing(f, name);
  if (!routing) {
    throw std::invalid_argument("unicast routing \"" + name + "\" is not defined on " +
                                f.topology->name());
  }
  const cdg::ChannelGraph g = cdg::build_unicast_cdg(*f.topology, *routing);
  if (!quiet) {
    std::printf("scenario: %s @ %s (unicast)\n", name.c_str(), f.topology->name().c_str());
    std::printf("  channels:     %u\n", g.num_channels());
    std::printf("  dependencies: %zu\n", g.num_dependencies());
  }
  const auto cycle = g.find_cycle();
  if (!quiet) {
    if (!cycle) {
      std::printf("  deadlock: NONE (CDG acyclic)\n");
    } else {
      std::printf("  deadlock: channel dependency cycle of length %zu:\n", cycle->size());
      for (const topo::ChannelId c : *cycle) {
        const topo::ChannelEnds ends = f.topology->channel_ends(c);
        std::printf("    c%u (%u -> %u)\n", c, ends.from, ends.to);
      }
    }
  }
  Outcome out;
  out.name = name;
  out.clean = !cycle.has_value();
  out.label = out.clean ? "CLEAN" : "DEADLOCK";
  out.json = obs::Json::object();
  out.json["mode"] = "unicast";
  out.json["name"] = name;
  out.json["channels"] = g.num_channels();
  out.json["dependencies"] = g.num_dependencies();
  out.json["deadlock_free"] = out.clean;
  if (cycle) {
    obs::Json cyc = obs::Json::array();
    for (const topo::ChannelId c : *cycle) {
      obs::Json e = obs::Json::object();
      e["channel"] = c;
      const topo::ChannelEnds ends = f.topology->channel_ends(c);
      e["from"] = ends.from;
      e["to"] = ends.to;
      cyc.push_back(std::move(e));
    }
    out.json["cycle"] = std::move(cyc);
  } else {
    out.json["cycle"] = obs::Json();
  }
  return out;
}

Outcome verify_multicast(const analysis::Fixture& f, mcast::Algorithm algorithm,
                         const analysis::AnalysisConfig& config, bool quiet) {
  const analysis::Scenario scenario = analysis::make_scenario(f, algorithm);
  if (!quiet) std::printf("scenario: %s\n", scenario.name.c_str());

  const analysis::DeadlockReport deadlock = analysis::analyze_deadlock(scenario, config);
  const analysis::InvariantReport inv = analysis::check_invariants(scenario, config);
  if (!quiet) {
    std::printf("  instances analyzed: %zu (destination sets up to %u)\n",
                deadlock.instances_analyzed, config.max_set_size);
    std::printf("  virtual channels:   %zu\n", deadlock.virtual_channels);
    std::printf("  dependencies:       %zu\n", deadlock.dependencies);
    if (inv.ok()) {
      std::printf("  invariants: OK (%zu instances checked)\n", inv.instances_checked);
    } else {
      std::printf("  invariants: %zu violation(s) over %zu instances\n", inv.violations,
                  inv.instances_checked);
      for (const analysis::InvariantViolation& v : inv.samples) {
        std::printf("    [%s] source %u, %zu destination(s): %s\n", v.kind.c_str(),
                    v.instance.source, v.instance.destinations.size(), v.detail.c_str());
      }
    }
    if (deadlock.deadlock_free()) {
      std::printf("  deadlock: NONE (multicast CDG admits no multi-instance cycle)\n");
    } else {
      std::printf("  %s", deadlock.witness->format(*f.topology).c_str());
    }
  }
  Outcome out;
  out.name = mcast::algorithm_name(algorithm);
  out.clean = deadlock.deadlock_free() && inv.ok();
  if (out.clean) {
    out.label = "CLEAN";
  } else if (!deadlock.deadlock_free()) {
    out.label = inv.ok() ? "DEADLOCK" : "DEADLOCK+VIOLATIONS";
  } else {
    out.label = "INVARIANT-VIOLATIONS";
  }
  out.claimed_clean = analysis::claimed_deadlock_free(algorithm);
  out.json = obs::Json::object();
  out.json["mode"] = "multicast";
  out.json["name"] = out.name;
  out.json["deadlock"] = analysis::deadlock_json(deadlock, *f.topology);
  out.json["invariants"] = analysis::invariants_json(inv);
  return out;
}

Outcome verify_relation(const analysis::Fixture& f, const std::string& name,
                        const analysis::AnalysisConfig& config, bool escape_only, bool quiet) {
  const analysis::RoutingRelation relation = analysis::make_relation(f, name);
  const analysis::RelationReport report = analysis::analyze_relation(relation, config);
  const bool certified =
      escape_only ? (report.stuck_states == 0 && report.escape.certified()) : report.certified();
  if (!quiet) {
    std::printf("scenario: relation %s @ %s%s\n", name.c_str(), f.topology->name().c_str(),
                escape_only ? " (escape-channel condition)" : "");
    std::printf("  instances analyzed: %zu (destination sets up to %u)\n",
                report.instances_analyzed, config.max_set_size);
    std::printf("  worm states:        %zu (%zu stuck)\n", report.worm_states,
                report.stuck_states);
    std::printf("  virtual channels:   %zu\n", report.virtual_channels);
    std::printf("  dependencies:       %zu\n", report.dependencies);
    std::printf("  relation CDG: %s\n", report.cdg_acyclic ? "acyclic" : "cyclic");
    if (report.escape.checked) {
      std::printf("  escape channels: %zu, extended dependencies: %zu -> %s\n",
                  report.escape.escape_channels, report.escape.extended_dependencies,
                  report.escape.certified() ? "certified (escape subgraph acyclic)"
                                            : "NOT certified");
      for (const std::string& failure : report.escape.failures) {
        std::printf("    escape failure: %s\n", failure.c_str());
      }
    } else {
      std::printf("  escape channels: none declared\n");
    }
    if (report.witness) {
      std::printf("  %s", report.witness->format(*f.topology).c_str());
    } else if (certified) {
      std::printf("  deadlock: NONE (%s)\n",
                  report.cdg_acyclic && !escape_only ? "relation CDG acyclic"
                                                     : "escape-channel condition holds");
    }
  }
  Outcome out;
  out.name = name;
  out.clean = certified;
  out.label = certified ? "CLEAN" : "DEADLOCK";
  out.claimed_clean = relation.claimed_deadlock_free;
  out.json = obs::Json::object();
  out.json["mode"] = "relation";
  out.json["name"] = name;
  out.json["escape_only"] = escape_only;
  out.json["relation"] = analysis::relation_json(report, *f.topology);
  return out;
}

int run(int argc, char** argv) {
  tools::ArgParser args(argc, argv);
  const std::string topology_spec =
      args.get("topology", "mesh:4x4", "topology spec (mesh:WxH, cube:N, mesh3:XxYxZ, kary:KxN, karymesh:KxN)");
  const std::string algorithm = args.get(
      "algorithm", "all",
      "multicast algorithm name, unicast routing (xfirst, ecube, zfirst, dimension-order, "
      "label-high, label-low), or \"all\" for every verifiable multicast algorithm");
  const std::string relation = args.get(
      "relation", "",
      "adaptive routing relation to verify (adaptive-dual-path, dual-path, multi-path, "
      "fixed-path, min-adaptive, min-adaptive-escape, or \"all\"); replaces the algorithm "
      "scenarios when set");
  const bool escape_only = args.get_flag(
      "escape-channels", "relations must pass the escape-channel certification (Duato's "
                         "sufficient condition); plain CDG acyclicity no longer counts");
  const bool json_mode =
      args.get_flag("json", "emit one structured mcnet-verify-v1 JSON document");
  analysis::AnalysisConfig config;
  config.max_set_size = args.get_int_in<std::uint32_t>(
      "max-dests", config.max_set_size, 1, std::numeric_limits<std::uint32_t>::max(),
      "largest destination-set size enumerated");
  config.max_instances = args.get_int_in<std::size_t>(
      "max-instances", static_cast<std::int64_t>(config.max_instances), 0,
      std::numeric_limits<std::int64_t>::max(),
      "instance budget (stride-sampled above it; 0 = no budget)");
  config.shrink = !args.get_flag("no-shrink", "skip counterexample shrinking");
  const std::string expect =
      args.get("expect", "", "expected verdict: clean, deadlock, or auto (per-algorithm claim)");
  if (args.help_requested()) {
    args.print_usage();
    return 0;
  }
  args.reject_unknown();
  if (!expect.empty() && expect != "clean" && expect != "deadlock" && expect != "auto") {
    throw std::invalid_argument("--expect must be clean, deadlock, or auto");
  }

  const analysis::Fixture fixture = analysis::make_fixture(topology_spec);

  std::vector<Outcome> outcomes;
  if (!relation.empty()) {
    if (relation == "all") {
      for (const std::string& name : analysis::verifiable_relations(fixture)) {
        outcomes.push_back(verify_relation(fixture, name, config, escape_only, json_mode));
      }
    } else {
      outcomes.push_back(verify_relation(fixture, relation, config, escape_only, json_mode));
    }
  } else if (algorithm == "all") {
    for (const mcast::Algorithm a : analysis::verifiable_algorithms(fixture)) {
      outcomes.push_back(verify_multicast(fixture, a, config, json_mode));
    }
  } else if (is_unicast_name(algorithm)) {
    outcomes.push_back(verify_unicast(fixture, algorithm, json_mode));
  } else {
    outcomes.push_back(
        verify_multicast(fixture, mcast::parse_algorithm(algorithm), config, json_mode));
  }

  int status = 0;
  for (Outcome& out : outcomes) {
    bool mismatch = false;
    if (!expect.empty()) {
      const bool want_clean = expect == "auto" ? out.claimed_clean : expect == "clean";
      if (out.clean != want_clean) {
        mismatch = true;
        status = 2;
      }
      out.json["expected"] = want_clean ? "CLEAN" : "DEADLOCK";
    }
    out.json["verdict"] = out.label;
    out.json["matches_expectation"] = !mismatch;
    if (!json_mode) {
      std::printf("  verdict: %s [%s]\n", out.label.c_str(), out.name.c_str());
      if (mismatch) {
        std::printf("  MISMATCH: expected %s\n",
                    expect == "auto" ? (out.claimed_clean ? "CLEAN" : "DEADLOCK")
                                     : (expect == "clean" ? "CLEAN" : "DEADLOCK"));
      }
    }
  }

  if (json_mode) {
    obs::Json doc = obs::Json::object();
    doc["schema"] = analysis::kReportSchema;
    doc["topology"] = fixture.topology->name();
    doc["spec"] = topology_spec;
    obs::Json cfg = obs::Json::object();
    cfg["max_dests"] = config.max_set_size;
    cfg["max_instances"] = config.max_instances;
    cfg["shrink"] = config.shrink;
    doc["config"] = std::move(cfg);
    obs::Json scenarios = obs::Json::array();
    for (Outcome& out : outcomes) scenarios.push_back(std::move(out.json));
    doc["scenarios"] = std::move(scenarios);
    doc["status"] = status;
    std::printf("%s\n", doc.dump(2).c_str());
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcnet_verify: error: %s\n", e.what());
    return 1;
  }
}
