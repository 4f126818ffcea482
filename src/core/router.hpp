// Polymorphic routing layer: one `Router` seam shared by the multicast
// service, the dynamic wormhole harness, the figure benches, the static
// analyzer and the CLI tools.
//
// A Router is bound to one topology, one algorithm and one channel-copy
// count; it produces routes and their simulator-facing worm specs.
// `make_router` builds the library's one concrete router, which dispatches
// every algorithm through a single switch and holds only the labeling,
// Hamiltonian cycle and unicast relay its algorithm uses.
// Implementations are immutable after construction and safe to share
// across threads, so parallel experiment sweeps can route through a single
// instance (see CachingRouter in core/route_cache.hpp for the memoizing
// decorator that makes repeated destination sets a cache hit).  Every
// request is routed by one route() call; route_many() is a loop over it.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/multicast.hpp"
#include "wormhole/worm.hpp"

namespace mcnet::mcast {

enum class Algorithm {
  kMultiUnicast,    // baseline: one unicast per destination
  kBroadcast,       // baseline: full broadcast tree, deliver at destinations
  kSortedMP,        // Ch. 5 multicast path
  kSortedMC,        // Ch. 5 multicast cycle
  kGreedyST,        // Ch. 5 Steiner-tree heuristic
  kXFirstMT,        // Ch. 5 X-first multicast tree (mesh; deadlock-prone worm tree)
  kDividedGreedyMT, // Ch. 5 divided greedy multicast tree (mesh)
  kLenTree,         // LEN greedy tree (hypercube baseline)
  kDualPath,        // Ch. 6 dual-path (deadlock-free)
  kMultiPath,       // Ch. 6 multi-path (deadlock-free)
  kFixedPath,       // Ch. 6 fixed-path (deadlock-free)
  kDCXFirstTree,    // Ch. 6 double-channel X-first tree (mesh, deadlock-free)
  kEcubeMT,         // naive e-cube multicast tree (hypercube, deadlock-prone)
  kBinomialBroadcast,  // nCUBE-2 broadcast tree (hypercube, deadlock-prone)
};

[[nodiscard]] std::string_view algorithm_name(Algorithm a);

/// Inverse of algorithm_name(); throws std::invalid_argument on unknown
/// names (shared by the CLI tools).
[[nodiscard]] Algorithm parse_algorithm(std::string_view name);

/// The routes of one route_many() call, element i for requests[i].
using RouteBatch = std::vector<MulticastRoute>;

class Router {
 public:
  virtual ~Router() = default;

  /// Route one multicast request.  Implementations normalise the request
  /// first (see MulticastRequest::normalized): duplicate destinations are
  /// deduped, and a source inside its own destination set throws
  /// std::invalid_argument instead of producing a degenerate worm.
  [[nodiscard]] virtual MulticastRoute route(const MulticastRequest& request) const = 0;

  /// Route a whole batch of requests: route(requests[i]) for each i in
  /// order, so element i is exactly what route(requests[i]) returns.
  /// Throws whatever route() throws on the first invalid request.  No
  /// router in the library overrides it; it stays virtual so instrumenting
  /// decorators can observe batch calls.
  [[nodiscard]] virtual RouteBatch route_many(
      std::span<const MulticastRequest> requests) const;

  /// Convert a route into worm specs, applying the topology's channel-copy
  /// pinning policy with the copy count the router was built with.
  [[nodiscard]] virtual std::vector<worm::WormSpec> specs(const MulticastRoute& route) const = 0;

  /// Algorithm name (stable, matches algorithm_name()).
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual Algorithm algorithm() const = 0;
  /// True when the bound algorithm is deadlock-free under wormhole
  /// switching with the router's channel-copy count (Chapter 6 path/tree
  /// algorithms and multi-unicast; the double-channel X-first tree needs
  /// two copies).
  [[nodiscard]] virtual bool deadlock_free() const = 0;
  [[nodiscard]] virtual const topo::Topology& topology() const = 0;
  [[nodiscard]] virtual std::uint8_t channel_copies() const = 0;

  /// route() + specs() in one call: the traffic-generator hot path.  The
  /// destinations are moved into the request.
  [[nodiscard]] std::vector<worm::WormSpec> build(
      topo::NodeId source, std::vector<topo::NodeId> destinations) const {
    return specs(route(MulticastRequest{source, std::move(destinations)}));
  }
};

/// True for the algorithms whose worm subnetworks are provably acyclic on
/// their own channel model (dual-/multi-/fixed-path; the double-channel
/// X-first tree on two channel copies) and for multi-unicast over the
/// deterministic deadlock-free unicast routers.
[[nodiscard]] bool algorithm_deadlock_free(Algorithm a);

/// Algorithms `make_router` accepts for this topology, in enum order.
/// Sorted-MP/MC on an odd-by-odd mesh (no Hamiltonian cycle) are listed
/// but throw std::logic_error at route() time.
[[nodiscard]] std::vector<Algorithm> supported_algorithms(const topo::Topology& topology);

/// Build a router for any topology with a Hamiltonian labeling (2-D mesh,
/// hypercube, 3-D mesh, k-ary n-cube).  Throws std::invalid_argument when
/// the topology kind is unknown, the algorithm is not applicable to it, or
/// `copies` is 0.  2-D meshes get the mesh-aware spec conversion: double-
/// channel X-first trees pin each hop to the copy its quadrant subnetwork
/// owns.
[[nodiscard]] std::unique_ptr<Router> make_router(const topo::Topology& topology,
                                                  Algorithm algorithm,
                                                  std::uint8_t copies = 1);

}  // namespace mcnet::mcast
