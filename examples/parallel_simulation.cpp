// Parallel logic-circuit simulation -- the motivating workload of Fig. 1.2:
// "the output of a gate may become the input of some connected gates", so
// after each evaluation wave a node must deliver the same value message to
// an arbitrary set of other nodes: a multicast.
//
// A random layered circuit is partitioned over the 16 nodes of a 4x4 mesh.
// Each wave, every node owning gates with off-node fan-out issues one
// multicast to the set of nodes hosting successor gates; the next wave
// starts when every message of the current wave has been delivered.  The
// program reports the communication makespan per multicast algorithm.
//
//   $ ./examples/parallel_simulation
#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <vector>

#include "core/router.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "wormhole/network.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

struct Wave {
  // For each sending node: the set of receiving nodes.
  std::vector<std::pair<topo::NodeId, std::vector<topo::NodeId>>> multicasts;
};

// Synthesise a layered random circuit and reduce it to per-wave multicast
// patterns between mesh nodes.
std::vector<Wave> make_circuit_waves(const topo::Mesh2D& mesh, std::uint32_t waves,
                                     std::uint32_t gates_per_node, std::uint64_t seed) {
  evsim::Rng rng(seed);
  std::vector<Wave> result(waves);
  for (Wave& wave : result) {
    for (topo::NodeId sender = 0; sender < mesh.num_nodes(); ++sender) {
      std::set<topo::NodeId> receivers;
      for (std::uint32_t g = 0; g < gates_per_node; ++g) {
        // Each gate fans out to 1..3 successor gates on random nodes.
        const std::uint32_t fanout = rng.uniform_int(1, 3);
        for (std::uint32_t f = 0; f < fanout; ++f) {
          const topo::NodeId r = rng.uniform_int(0, mesh.num_nodes() - 1);
          if (r != sender) receivers.insert(r);
        }
      }
      if (!receivers.empty()) {
        wave.multicasts.emplace_back(
            sender, std::vector<topo::NodeId>(receivers.begin(), receivers.end()));
      }
    }
  }
  return result;
}

double run_circuit(const topo::Mesh2D& mesh, const std::vector<Wave>& waves, Algorithm algo,
                   std::uint8_t copies) {
  const auto router = mcast::make_router(mesh, algo, copies);
  evsim::Scheduler sched;
  worm::Network net(
      mesh, {.flit_time = 50e-9, .message_flits = 32, .channel_copies = copies}, sched);
  worm::NetworkHooks hooks;
  std::uint64_t outstanding = 0;
  std::size_t next_wave = 0;

  std::function<void()> launch_wave = [&] {
    if (next_wave >= waves.size()) return;
    const Wave& wave = waves[next_wave++];
    outstanding = wave.multicasts.size();
    for (const auto& [sender, receivers] : wave.multicasts) {
      net.inject(router->build(sender, receivers));
    }
  };
  hooks.on_message_done = [&](std::uint64_t, double) {
    if (--outstanding == 0) launch_wave();  // barrier between waves
  };
  net.set_hooks(std::move(hooks));
  launch_wave();
  sched.run();
  return sched.now();
}

}  // namespace

int main() {
  const topo::Mesh2D mesh(4, 4);
  const std::vector<Wave> waves = make_circuit_waves(mesh, /*waves=*/20,
                                                     /*gates_per_node=*/6, /*seed=*/2026);
  std::size_t total_multicasts = 0;
  for (const Wave& w : waves) total_multicasts += w.multicasts.size();
  std::printf("parallel circuit simulation on a 4x4 mesh: %zu waves, %zu multicasts,\n"
              "32-byte value messages, barrier between waves\n\n",
              waves.size(), total_multicasts);
  std::printf("%-22s %10s %22s\n", "algorithm", "channels", "comm. makespan (us)");
  struct Row {
    Algorithm algo;
    std::uint8_t copies;
  };
  for (const Row& row :
       {Row{Algorithm::kMultiUnicast, 1}, Row{Algorithm::kDualPath, 1},
        Row{Algorithm::kMultiPath, 1}, Row{Algorithm::kFixedPath, 1},
        Row{Algorithm::kDCXFirstTree, 2}}) {
    const double t = run_circuit(mesh, waves, row.algo, row.copies);
    std::printf("%-22s %10u %22.2f\n", std::string(algorithm_name(row.algo)).c_str(),
                row.copies, t * 1e6);
  }
  return 0;
}
