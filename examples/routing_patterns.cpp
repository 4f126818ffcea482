// Reproduces the illustrative routing examples of Section 5.4 and
// Section 6.2.2 as ASCII diagrams: the sorted-MP path in a 4x4 mesh
// (Fig. 5.7), the greedy Steiner tree in an 8x8 mesh (Fig. 5.9), the
// X-first and divided-greedy trees in a 6x6 mesh (Figs. 5.11/5.12), and
// the dual-/multi-/fixed-path patterns of Figs. 6.13/6.16/6.17.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/router.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"
#include "viz/ascii.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using topo::Mesh2D;
using topo::NodeId;

void show(const char* title, const Mesh2D& mesh, Algorithm algo,
          const mcast::MulticastRequest& req) {
  const mcast::MulticastRoute route = mcast::make_router(mesh, algo)->route(req);
  verify_route(mesh, req, route);
  std::printf("%s\n", title);
  std::printf("algorithm %s: traffic %llu, max delivery %u hops\n",
              std::string(algorithm_name(algo)).c_str(),
              static_cast<unsigned long long>(route.traffic()), route.max_delivery_hops());
  std::string art = viz::render_mesh_route(mesh, req, route);
  // Indent for readability.
  std::printf("  ");
  for (const char c : art) {
    std::putchar(c);
    if (c == '\n') std::printf("  ");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace mcnet;

  {
    // Fig. 5.7: sorted MP in a 4x4 mesh, source 9, K = {0, 1, 6, 12}.
    const Mesh2D mesh(4, 4);
    const mcast::MulticastRequest req{9, {0, 1, 6, 12}};
    show("=== Fig. 5.7: sorted MP, 4x4 mesh, source node 9 ===", mesh, Algorithm::kSortedMP, req);
  }
  {
    // Fig. 5.9: greedy ST in an 8x8 mesh, source [2,7].
    const Mesh2D mesh(8, 8);
    const mcast::MulticastRequest req{
        mesh.node(2, 7),
        {mesh.node(0, 5), mesh.node(2, 3), mesh.node(4, 1), mesh.node(6, 3), mesh.node(7, 4)}};
    show("=== Fig. 5.9: greedy Steiner tree, 8x8 mesh, source (2,7) ===", mesh,
         Algorithm::kGreedyST, req);
  }
  {
    const Mesh2D mesh(6, 6);
    const mcast::MulticastRequest ch5{
        mesh.node(3, 2),
        {mesh.node(2, 0), mesh.node(3, 0), mesh.node(4, 0), mesh.node(1, 1), mesh.node(5, 1),
         mesh.node(0, 2), mesh.node(1, 3), mesh.node(2, 5), mesh.node(3, 5), mesh.node(5, 5)}};
    show("=== Fig. 5.11: X-first multicast tree, 6x6 mesh, source (3,2) ===", mesh,
         Algorithm::kXFirstMT, ch5);
    show("=== Fig. 5.12: divided greedy multicast tree, same request ===", mesh,
         Algorithm::kDividedGreedyMT, ch5);

    const mcast::MulticastRequest ch6{
        mesh.node(3, 2),
        {mesh.node(0, 0), mesh.node(0, 2), mesh.node(0, 5), mesh.node(1, 3), mesh.node(4, 5),
         mesh.node(5, 0), mesh.node(5, 1), mesh.node(5, 3), mesh.node(5, 4)}};
    show("=== Fig. 6.13: dual-path routing, 6x6 mesh, source (3,2) ===", mesh,
         Algorithm::kDualPath, ch6);
    show("=== Fig. 6.16: multi-path routing, same request ===", mesh, Algorithm::kMultiPath, ch6);
    show("=== Fig. 6.17: fixed-path routing, same request ===", mesh, Algorithm::kFixedPath, ch6);
  }
  {
    // Figs. 6.19 / 6.21: dual- and multi-path routing in a 4-cube, source
    // 1100, destinations 0100, 0011, 0111, 1000, 1111 (printed as node
    // sequences; '!' marks a delivery).
    const topo::Hypercube cube(4);
    const mcast::MulticastRequest req{0b1100, {0b0100, 0b0011, 0b0111, 0b1000, 0b1111}};
    for (const auto& [title, algo] :
         {std::pair{"=== Fig. 6.19: dual-path routing, 4-cube, source 1100 ===",
                    Algorithm::kDualPath},
          {"=== Fig. 6.21: multi-path routing, 4-cube, source 1100 ===",
           Algorithm::kMultiPath}}) {
      const mcast::MulticastRoute route = mcast::make_router(cube, algo)->route(req);
      verify_route(cube, req, route);
      std::printf("%s\ntraffic %llu, max delivery %u hops\n%s\n", title,
                  static_cast<unsigned long long>(route.traffic()),
                  route.max_delivery_hops(), viz::describe_route(route).c_str());
    }
  }
  return 0;
}
