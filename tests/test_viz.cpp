// ASCII route rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/router.hpp"
#include "viz/ascii.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;

TEST(Viz, RendersSourceDestinationsAndLinks) {
  const topo::Mesh2D mesh(4, 4);
  const mcast::MulticastRequest req{9, {0, 1, 6, 12}};
  const mcast::MulticastRoute route = mcast::make_router(mesh, Algorithm::kSortedMP)->route(req);
  const std::string art = viz::render_mesh_route(mesh, req, route);
  EXPECT_EQ(std::count(art.begin(), art.end(), 'S'), 1);
  EXPECT_EQ(std::count(art.begin(), art.end(), 'D'), 4);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 7);  // 2*4-1 rows
  // The 8-hop MP uses 8 links; each horizontal link paints "---", vertical "|".
  const auto dashes = std::count(art.begin(), art.end(), '-');
  const auto bars = std::count(art.begin(), art.end(), '|');
  EXPECT_EQ(dashes / 3 + bars, 8);
}

TEST(Viz, UntouchedNodesStayDotted) {
  const topo::Mesh2D mesh(3, 3);
  const mcast::MulticastRequest req{0, {1}};
  const auto router = mcast::make_router(mesh, Algorithm::kDualPath);
  const std::string art = viz::render_mesh_route(mesh, req, router->route(req));
  EXPECT_EQ(std::count(art.begin(), art.end(), '.'), 7);  // 9 - S - D
}

TEST(Viz, DescribeRouteMarksDeliveries) {
  const topo::Mesh2D mesh(4, 4);
  const mcast::MulticastRequest req{0, {3, 12}};
  const std::string text =
      viz::describe_route(mcast::make_router(mesh, Algorithm::kDualPath)->route(req));
  EXPECT_NE(text.find("path 0"), std::string::npos);
  EXPECT_NE(text.find("3!"), std::string::npos);
  EXPECT_NE(text.find("12!"), std::string::npos);
}

TEST(Viz, DescribeRouteListsTreeLinks) {
  const topo::Mesh2D mesh(4, 4);
  const mcast::MulticastRequest req{5, {6, 9}};
  const std::string text =
      viz::describe_route(mcast::make_router(mesh, Algorithm::kXFirstMT)->route(req));
  EXPECT_NE(text.find("tree 0"), std::string::npos);
  EXPECT_NE(text.find("[5->6!]"), std::string::npos);
}

}  // namespace
