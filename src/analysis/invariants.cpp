#include "analysis/invariants.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>

#include "analysis/instances.hpp"
#include "core/dc_xfirst_tree.hpp"
#include "core/dual_path.hpp"

namespace mcnet::analysis {

namespace {

using mcast::MulticastRequest;
using mcast::MulticastRoute;
using mcast::PathRoute;
using mcast::TreeRoute;
using topo::ChannelId;
using topo::NodeId;

constexpr std::size_t kMaxSamples = 8;

class Recorder {
 public:
  explicit Recorder(InvariantReport& report) : report_(report) {}

  void violation(const std::string& kind, const MulticastRequest& instance,
                 std::string detail) {
    ++report_.violations;
    if (report_.samples.size() < kMaxSamples) {
      report_.samples.push_back({kind, instance, std::move(detail)});
    }
  }

 private:
  InvariantReport& report_;
};

std::string hop_text(NodeId from, NodeId to) {
  std::ostringstream out;
  out << "hop " << from << " -> " << to;
  return out.str();
}

void check_label_monotone(const Scenario& s, const MulticastRequest& instance,
                          const MulticastRoute& route, Recorder& rec) {
  for (const PathRoute& path : route.paths) {
    const bool ascending = path.channel_class == mcast::kHighChannelClass;
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      const std::uint32_t lf = s.labeling->label(path.nodes[i]);
      const std::uint32_t lt = s.labeling->label(path.nodes[i + 1]);
      if (ascending ? lt > lf : lt < lf) continue;
      std::ostringstream out;
      out << hop_text(path.nodes[i], path.nodes[i + 1]) << " breaks "
          << (ascending ? "ascending" : "descending") << " label order (" << lf << " -> " << lt
          << ") on the " << (ascending ? "high" : "low") << " subnetwork";
      rec.violation("label-monotone", instance, out.str());
    }
  }
}

void check_quadrants(const Scenario& s, const MulticastRequest& instance,
                     const MulticastRoute& route, Recorder& rec) {
  // Allowed hop directions per quadrant subnetwork, indexed by Quadrant.
  static constexpr std::int32_t kDir[4][2][2] = {
      {{+1, 0}, {0, +1}},  // +X,+Y
      {{-1, 0}, {0, +1}},  // -X,+Y
      {{-1, 0}, {0, -1}},  // -X,-Y
      {{+1, 0}, {0, -1}},  // +X,-Y
  };
  for (const TreeRoute& tree : route.trees) {
    if (tree.channel_class >= 4) {
      rec.violation("quadrant", instance,
                    "tree channel class " + std::to_string(tree.channel_class) +
                        " is not a quadrant subnetwork");
      continue;
    }
    for (const TreeRoute::Link& link : tree.links) {
      const topo::Coord2 a = s.quadrant_mesh->coord(link.from);
      const topo::Coord2 b = s.quadrant_mesh->coord(link.to);
      const std::int32_t dx = b.x - a.x;
      const std::int32_t dy = b.y - a.y;
      const auto& dirs = kDir[tree.channel_class];
      const bool allowed = (dx == dirs[0][0] && dy == dirs[0][1]) ||
                           (dx == dirs[1][0] && dy == dirs[1][1]);
      if (!allowed) {
        rec.violation("quadrant", instance,
                      hop_text(link.from, link.to) + " leaves quadrant subnetwork " +
                          std::to_string(tree.channel_class));
      }
    }
  }
}

// One worm never acquires the same virtual channel twice; duplicates mean
// the route claims capacity it cannot hold.  `channels` holds the channel
// of every hop in verify_route() order.
void check_capacity(const Scenario& s, const MulticastRequest& instance,
                    const MulticastRoute& route, std::span<const ChannelId> channels,
                    Recorder& rec) {
  thread_local mcast::RequestScratch acquired;
  const std::uint32_t num_vcs = s.topology->num_channels() * s.channel_copies;
  std::size_t hop = 0;
  ChannelId twice = topo::kInvalidChannel;  // smallest duplicate of the current worm
  const auto begin_worm = [&] {
    acquired.begin(num_vcs);
    twice = topo::kInvalidChannel;
  };
  const auto acquire = [&](std::uint8_t cls, NodeId from, NodeId to) {
    const std::uint8_t copy = s.copy_of ? s.copy_of(cls, from, to) : 0;
    const ChannelId vc = virtual_channel_id(channels[hop++], copy, s.channel_copies);
    if (!acquired.mark(vc)) twice = std::min(twice, vc);
  };
  const auto end_worm = [&](const char* what) {
    if (twice != topo::kInvalidChannel) {
      rec.violation("capacity", instance,
                    std::string(what) + " acquires virtual channel " + std::to_string(twice) +
                        " twice");
    }
  };
  for (const PathRoute& path : route.paths) {
    begin_worm();
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      acquire(path.channel_class, path.nodes[i], path.nodes[i + 1]);
    }
    end_worm("path worm");
  }
  for (const TreeRoute& tree : route.trees) {
    begin_worm();
    for (const TreeRoute::Link& link : tree.links) {
      acquire(tree.channel_class, link.from, link.to);
    }
    end_worm("tree worm");
  }
}

void check_shortest(const Scenario& s, const MulticastRequest& instance,
                    const MulticastRoute& route, Recorder& rec) {
  if (instance.destinations.size() != 1) return;
  const NodeId dest = instance.destinations.front();
  const std::uint32_t dist = s.topology->distance(instance.source, dest);
  const std::uint32_t hops = route.max_delivery_hops();
  if (hops < dist) {
    rec.violation("shortest", instance,
                  "delivery in " + std::to_string(hops) + " hops beats the distance lower bound " +
                      std::to_string(dist));
  } else if (s.shortest_unicast && hops != dist) {
    rec.violation("shortest", instance,
                  "unicast leg takes " + std::to_string(hops) + " hops, shortest is " +
                      std::to_string(dist));
  }
}

}  // namespace

InvariantReport check_invariants(const Scenario& scenario, const AnalysisConfig& config) {
  InvariantReport report;
  Recorder rec(report);

  const std::vector<MulticastRequest> instances =
      enumerate_instances(*scenario.topology, config.max_set_size, config.max_instances);
  report.instances_checked = instances.size();

  std::vector<ChannelId> channels;  // each hop's channel, looked up once
  for (const MulticastRequest& instance : instances) {
    MulticastRoute route;
    try {
      route = scenario.route(instance);
    } catch (const std::exception& e) {
      rec.violation("reachability", instance, e.what());
      continue;
    }
    try {
      mcast::verify_route(*scenario.topology, instance, route, &channels);
    } catch (const std::exception& e) {
      rec.violation("structure", instance, e.what());
      continue;
    }
    if (scenario.label_monotone_paths && scenario.labeling != nullptr) {
      check_label_monotone(scenario, instance, route, rec);
    }
    if (scenario.quadrant_mesh != nullptr) {
      check_quadrants(scenario, instance, route, rec);
    }
    check_capacity(scenario, instance, route, channels, rec);
    check_shortest(scenario, instance, route, rec);
  }
  return report;
}

}  // namespace mcnet::analysis
