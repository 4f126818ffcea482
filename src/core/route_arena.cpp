#include "core/route_arena.hpp"

#include <algorithm>

namespace mcnet::mcast {

void RouteBatch::clear() {
  requests_.clear();
  paths_.clear();
  trees_.clear();
  path_nodes_.clear();
  path_deliveries_.clear();
  tree_links_.clear();
  tree_deliveries_.clear();
}

void RouteBatch::reserve(std::size_t requests, std::size_t path_nodes_hint,
                         std::size_t tree_links_hint) {
  requests_.reserve(requests);
  paths_.reserve(requests);  // most algorithms emit 1-4 paths per route
  if (path_nodes_hint > 0) path_nodes_.reserve(path_nodes_hint);
  if (tree_links_hint > 0) tree_links_.reserve(tree_links_hint);
}

std::size_t RouteBatch::append(const MulticastRoute& route) {
  RequestSpan req;
  req.source = route.source;
  req.paths_begin = static_cast<std::uint32_t>(paths_.size());
  req.paths_count = static_cast<std::uint32_t>(route.paths.size());
  req.trees_begin = static_cast<std::uint32_t>(trees_.size());
  req.trees_count = static_cast<std::uint32_t>(route.trees.size());

  for (const PathRoute& p : route.paths) {
    PathSpan span;
    span.nodes_begin = static_cast<std::uint32_t>(path_nodes_.size());
    span.nodes_count = static_cast<std::uint32_t>(p.nodes.size());
    span.deliveries_begin = static_cast<std::uint32_t>(path_deliveries_.size());
    span.deliveries_count = static_cast<std::uint32_t>(p.delivery_hops.size());
    span.channel_class = p.channel_class;
    path_nodes_.insert(path_nodes_.end(), p.nodes.begin(), p.nodes.end());
    path_deliveries_.insert(path_deliveries_.end(), p.delivery_hops.begin(),
                            p.delivery_hops.end());
    paths_.push_back(span);
  }
  for (const TreeRoute& t : route.trees) {
    TreeSpan span;
    span.source = t.source;
    span.links_begin = static_cast<std::uint32_t>(tree_links_.size());
    span.links_count = static_cast<std::uint32_t>(t.links.size());
    span.deliveries_begin = static_cast<std::uint32_t>(tree_deliveries_.size());
    span.deliveries_count = static_cast<std::uint32_t>(t.delivery_links.size());
    span.channel_class = t.channel_class;
    tree_links_.insert(tree_links_.end(), t.links.begin(), t.links.end());
    tree_deliveries_.insert(tree_deliveries_.end(), t.delivery_links.begin(),
                            t.delivery_links.end());
    trees_.push_back(span);
  }
  requests_.push_back(req);
  return requests_.size() - 1;
}

MulticastRoute RouteBatch::route_at(std::size_t index) const {
  const RequestSpan& req = requests_[index];
  MulticastRoute route;
  route.source = req.source;
  route.paths.reserve(req.paths_count);
  route.trees.reserve(req.trees_count);
  for (const PathSpan& p : paths_of(index)) {
    PathRoute path;
    const auto nodes = path_nodes(p);
    const auto deliveries = path_deliveries(p);
    path.nodes.assign(nodes.begin(), nodes.end());
    path.delivery_hops.assign(deliveries.begin(), deliveries.end());
    path.channel_class = p.channel_class;
    route.paths.push_back(std::move(path));
  }
  for (const TreeSpan& t : trees_of(index)) {
    TreeRoute tree;
    tree.source = t.source;
    const auto links = tree_links(t);
    const auto deliveries = tree_deliveries(t);
    tree.links.assign(links.begin(), links.end());
    tree.delivery_links.assign(deliveries.begin(), deliveries.end());
    tree.channel_class = t.channel_class;
    route.trees.push_back(std::move(tree));
  }
  return route;
}

std::uint64_t RouteBatch::traffic_at(std::size_t index) const {
  std::uint64_t total = 0;
  for (const PathSpan& p : paths_of(index)) {
    total += p.nodes_count > 0 ? p.nodes_count - 1 : 0;
  }
  for (const TreeSpan& t : trees_of(index)) total += t.links_count;
  return total;
}

std::uint32_t RouteBatch::deliveries_at(std::size_t index) const {
  std::uint32_t total = 0;
  for (const PathSpan& p : paths_of(index)) total += p.deliveries_count;
  for (const TreeSpan& t : trees_of(index)) total += t.deliveries_count;
  return total;
}

std::uint32_t RouteBatch::max_delivery_hops_at(std::size_t index) const {
  std::uint32_t m = 0;
  for (const PathSpan& p : paths_of(index)) {
    for (const std::uint32_t h : path_deliveries(p)) m = std::max(m, h);
  }
  for (const TreeSpan& t : trees_of(index)) {
    const auto links = tree_links(t);
    for (const std::uint32_t li : tree_deliveries(t)) m = std::max(m, links[li].depth);
  }
  return m;
}

std::uint64_t RouteBatch::total_traffic() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < requests_.size(); ++i) total += traffic_at(i);
  return total;
}

}  // namespace mcnet::mcast
