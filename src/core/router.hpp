// Polymorphic routing layer: one `Router` seam shared by the multicast
// service, the dynamic wormhole harness, the figure benches and the CLI
// tools, instead of each consumer re-wiring suite + algorithm + worm-spec
// conversion through its own std::function glue.
//
// A Router is bound to one topology, one algorithm and one channel-copy
// count; it produces routes and their simulator-facing worm specs.
// Implementations are immutable after construction and safe to share
// across threads, so parallel experiment sweeps can route through a single
// instance (see CachingRouter in core/route_cache.hpp for the memoizing
// decorator that makes repeated destination sets a cache hit).  Every
// request is routed by one route() call; route_many() is a loop over it.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/route_arena.hpp"
#include "core/route_factory.hpp"
#include "wormhole/worm.hpp"

namespace mcnet::mcast {

class Router {
 public:
  virtual ~Router() = default;

  /// Route one multicast request.  Implementations normalise the request
  /// first (see MulticastRequest::normalized): duplicate destinations are
  /// deduped, and a source inside its own destination set throws
  /// std::invalid_argument instead of producing a degenerate worm.
  [[nodiscard]] virtual MulticastRoute route(const MulticastRequest& request) const = 0;

  /// Route a whole batch of requests into one arena-backed RouteBatch:
  /// route(requests[i]) for each i in order, so element i converts
  /// (route_at) to exactly what route(requests[i]) returns.  Throws
  /// whatever route() throws on the first invalid request.  No router in
  /// the library overrides it; it stays virtual so instrumenting
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
  /// switching (Chapter 6 path/tree algorithms and multi-unicast).
  [[nodiscard]] virtual bool deadlock_free() const = 0;
  [[nodiscard]] virtual const topo::Topology& topology() const = 0;
  [[nodiscard]] virtual std::uint8_t channel_copies() const = 0;

  /// route() + specs() in one call: the traffic-generator hot path.
  [[nodiscard]] std::vector<worm::WormSpec> build(
      topo::NodeId source, const std::vector<topo::NodeId>& destinations) const {
    return specs(route(MulticastRequest{source, destinations}));
  }
};

/// True for the algorithms whose worm subnetworks are provably acyclic
/// (dual-/multi-/fixed-path, the double-channel X-first tree) and for
/// multi-unicast over the deterministic deadlock-free unicast routers.
[[nodiscard]] bool algorithm_deadlock_free(Algorithm a);

/// Algorithms `make_router` accepts for this topology (mirrors what the
/// underlying suite can route; sorted-MP/MC on an odd-by-odd mesh still
/// throw at route() time, exactly as the suite does).
[[nodiscard]] std::vector<Algorithm> supported_algorithms(const topo::Topology& topology);

/// Build a router for any supported topology (2-D mesh, hypercube, 3-D
/// mesh, k-ary n-cube).  Throws std::invalid_argument when the topology
/// kind is unknown or the algorithm is not applicable to it.
[[nodiscard]] std::unique_ptr<Router> make_router(const topo::Topology& topology,
                                                  Algorithm algorithm,
                                                  std::uint8_t copies = 1);

/// Shared adapter state for the suite-backed routers below.
class SuiteRouterBase : public Router {
 public:
  [[nodiscard]] std::string_view name() const override { return algorithm_name(algorithm_); }
  [[nodiscard]] Algorithm algorithm() const override { return algorithm_; }
  [[nodiscard]] bool deadlock_free() const override {
    return algorithm_deadlock_free(algorithm_);
  }
  [[nodiscard]] std::uint8_t channel_copies() const override { return copies_; }

 protected:
  SuiteRouterBase(Algorithm algorithm, std::uint8_t copies)
      : algorithm_(algorithm), copies_(copies) {}

  Algorithm algorithm_;
  std::uint8_t copies_;
};

/// 2-D mesh adapter (mesh-aware spec conversion: double-channel X-first
/// trees pin each hop to the copy its quadrant subnetwork owns).
class MeshRouter final : public SuiteRouterBase {
 public:
  MeshRouter(const topo::Mesh2D& mesh, Algorithm algorithm, std::uint8_t copies = 1);

  [[nodiscard]] MulticastRoute route(const MulticastRequest& request) const override;
  [[nodiscard]] std::vector<worm::WormSpec> specs(const MulticastRoute& route) const override;
  [[nodiscard]] const topo::Topology& topology() const override { return suite_.mesh(); }
  [[nodiscard]] const MeshRoutingSuite& suite() const { return suite_; }

 private:
  MeshRoutingSuite suite_;
};

/// Hypercube adapter.
class CubeRouter final : public SuiteRouterBase {
 public:
  CubeRouter(const topo::Hypercube& cube, Algorithm algorithm, std::uint8_t copies = 1);

  [[nodiscard]] MulticastRoute route(const MulticastRequest& request) const override;
  [[nodiscard]] std::vector<worm::WormSpec> specs(const MulticastRoute& route) const override;
  [[nodiscard]] const topo::Topology& topology() const override { return suite_.cube(); }
  [[nodiscard]] const CubeRoutingSuite& suite() const { return suite_; }

 private:
  CubeRoutingSuite suite_;
};

/// Adapter over any topology with a Hamiltonian labeling (3-D meshes,
/// k-ary n-cubes): the path-based deadlock-free algorithms + baselines.
class LabeledRouter final : public SuiteRouterBase {
 public:
  LabeledRouter(const topo::Topology& topology, std::unique_ptr<ham::Labeling> labeling,
                Algorithm algorithm, std::uint8_t copies = 1);

  [[nodiscard]] MulticastRoute route(const MulticastRequest& request) const override;
  [[nodiscard]] std::vector<worm::WormSpec> specs(const MulticastRoute& route) const override;
  [[nodiscard]] const topo::Topology& topology() const override { return suite_.topology(); }
  [[nodiscard]] const LabeledRoutingSuite& suite() const { return suite_; }

 private:
  LabeledRoutingSuite suite_;
};

}  // namespace mcnet::mcast
