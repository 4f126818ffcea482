#include "core/multicast.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mcnet::mcast {

void MulticastRequest::validate(std::uint32_t num_nodes) const {
  if (source >= num_nodes) throw std::invalid_argument("source out of range");
  if (destinations.empty()) throw std::invalid_argument("multicast needs >= 1 destination");
  std::vector<NodeId> sorted = destinations;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("duplicate destination");
  }
  for (const NodeId d : sorted) {
    if (d >= num_nodes) throw std::invalid_argument("destination out of range");
    if (d == source) throw std::invalid_argument("destination equals source");
  }
}

bool MulticastRequest::is_normalized(std::uint32_t num_nodes,
                                     RequestScratch& scratch) const {
  if (source >= num_nodes) {
    throw std::invalid_argument("multicast source " + std::to_string(source) +
                                " out of range (network has " + std::to_string(num_nodes) +
                                " nodes)");
  }
  if (destinations.empty()) throw std::invalid_argument("multicast needs >= 1 destination");
  scratch.begin(num_nodes);
  bool clean = true;
  // Keep scanning after the first duplicate: a later destination may be out
  // of range or equal the source, and those must throw exactly as the old
  // rebuild-always path did (error precedence is positional).
  for (const NodeId d : destinations) {
    if (d >= num_nodes) {
      throw std::invalid_argument("multicast destination " + std::to_string(d) +
                                  " out of range (network has " + std::to_string(num_nodes) +
                                  " nodes)");
    }
    if (d == source) {
      throw std::invalid_argument("multicast destination set contains the source node " +
                                  std::to_string(source));
    }
    if (!scratch.mark(d)) clean = false;
  }
  return clean;
}

const MulticastRequest& MulticastRequest::normalize_into(std::uint32_t num_nodes,
                                                         RequestScratch& scratch,
                                                         MulticastRequest& storage) const {
  if (is_normalized(num_nodes, scratch)) return *this;
  // Rebuild with dedup (first occurrence kept, order preserved); validity
  // was established by the scan above, so no re-checking here.
  storage.source = source;
  storage.destinations.clear();
  storage.destinations.reserve(destinations.size());
  scratch.begin(num_nodes);
  for (const NodeId d : destinations) {
    if (scratch.mark(d)) storage.destinations.push_back(d);
  }
  return storage;
}

MulticastRequest MulticastRequest::normalized(std::uint32_t num_nodes) const {
  thread_local RequestScratch scratch;
  MulticastRequest storage;
  const MulticastRequest& result = normalize_into(num_nodes, scratch, storage);
  if (&result == this) return *this;  // clean fast path: plain copy, no rebuild
  return storage;  // NRVO / implicit move
}

std::uint32_t TreeRoute::add_link(NodeId from, NodeId to, std::int32_t parent) {
  Link link;
  link.from = from;
  link.to = to;
  link.parent = parent;
  link.depth = parent < 0 ? 1 : links[static_cast<std::size_t>(parent)].depth + 1;
  links.push_back(link);
  return static_cast<std::uint32_t>(links.size() - 1);
}

std::uint64_t MulticastRoute::traffic() const {
  std::uint64_t t = 0;
  for (const PathRoute& p : paths) t += p.hops();
  for (const TreeRoute& tr : trees) t += tr.links.size();
  return t;
}

std::uint32_t MulticastRoute::max_delivery_hops() const {
  std::uint32_t m = 0;
  for (const PathRoute& p : paths) {
    for (const std::uint32_t h : p.delivery_hops) m = std::max(m, h);
  }
  for (const TreeRoute& tr : trees) {
    for (const std::uint32_t li : tr.delivery_links) m = std::max(m, tr.links[li].depth);
  }
  return m;
}

std::uint32_t MulticastRoute::num_deliveries() const {
  std::uint32_t n = 0;
  for (const PathRoute& p : paths) n += static_cast<std::uint32_t>(p.delivery_hops.size());
  for (const TreeRoute& t : trees) n += static_cast<std::uint32_t>(t.delivery_links.size());
  return n;
}

namespace {

// Delivery counts of one verify_route() call, per node: a node is a
// requested destination iff its stamp is the call's epoch.  Grown on
// demand and never cleared, so a check allocates nothing once the arrays
// cover the topology.
struct DeliveryCounts {
  std::vector<std::uint64_t> stamp;
  std::vector<std::uint32_t> count;
  std::uint64_t epoch = 0;
};

}  // namespace

void verify_route(const topo::Topology& topology, const MulticastRequest& request,
                  const MulticastRoute& route, std::vector<topo::ChannelId>* hop_channels) {
  if (route.source != request.source) throw std::logic_error("route source mismatch");
  thread_local DeliveryCounts counts;
  const std::uint32_t n = topology.num_nodes();
  if (counts.stamp.size() < n) {
    counts.stamp.resize(n, 0);
    counts.count.resize(n, 0);
  }
  const std::uint64_t epoch = ++counts.epoch;
  for (const NodeId d : request.destinations) {
    if (d >= n) continue;  // never delivered: reported below
    counts.stamp[d] = epoch;
    counts.count[d] = 0;
  }
  const auto deliver = [&](NodeId v) {
    if (v >= n || counts.stamp[v] != epoch) {
      throw std::logic_error("delivery at non-destination");
    }
    ++counts.count[v];
  };
  const auto hop = [&](NodeId from, NodeId to) {
    const topo::ChannelId c = topology.channel(from, to);
    if (c != topo::kInvalidChannel && hop_channels != nullptr) hop_channels->push_back(c);
    return c != topo::kInvalidChannel;
  };
  if (hop_channels != nullptr) hop_channels->clear();

  for (const PathRoute& p : route.paths) {
    if (p.nodes.empty()) throw std::logic_error("empty path");
    if (p.nodes.front() != request.source) throw std::logic_error("path must start at source");
    for (std::size_t i = 0; i + 1 < p.nodes.size(); ++i) {
      if (!hop(p.nodes[i], p.nodes[i + 1])) {
        throw std::logic_error("path step between non-neighbours");
      }
    }
    for (const std::uint32_t h : p.delivery_hops) {
      if (h >= p.nodes.size()) throw std::logic_error("delivery hop out of range");
      deliver(p.nodes[h]);
    }
  }
  for (const TreeRoute& t : route.trees) {
    if (t.source != request.source) throw std::logic_error("tree source mismatch");
    for (std::size_t i = 0; i < t.links.size(); ++i) {
      const TreeRoute::Link& l = t.links[i];
      if (!hop(l.from, l.to)) throw std::logic_error("tree link between non-neighbours");
      if (l.parent >= static_cast<std::int32_t>(i)) {
        throw std::logic_error("tree parent not topologically ordered");
      }
      const NodeId expected_from = l.parent < 0
                                       ? t.source
                                       : t.links[static_cast<std::size_t>(l.parent)].to;
      if (l.from != expected_from) throw std::logic_error("tree link detached from parent");
    }
    for (const std::uint32_t li : t.delivery_links) {
      if (li >= t.links.size()) throw std::logic_error("delivery link out of range");
      deliver(t.links[li].to);
    }
  }
  for (const NodeId d : request.destinations) {
    const std::uint32_t count = d < n ? counts.count[d] : 0;
    if (count != 1) {
      throw std::logic_error("destination " + std::to_string(d) + " delivered " +
                             std::to_string(count) + " times");
    }
  }
}

}  // namespace mcnet::mcast
