#include "cdg/channel_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcnet::cdg {

void ChannelGraph::add_dependency(ChannelId from, ChannelId to, EdgeTag tag) {
  auto& s = succ_.at(from);
  auto& t = tags_.at(from);
  const auto it = std::lower_bound(s.begin(), s.end(), to);
  const auto idx = static_cast<std::size_t>(it - s.begin());
  if (it == s.end() || *it != to) {
    s.insert(it, to);
    t.emplace(t.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  if (tag == kNoEdgeTag) return;
  TagSet& edge = t[idx];
  if (edge.count >= kMaxTagsPerEdge) return;
  const auto end = edge.tags.begin() + edge.count;
  if (std::find(edge.tags.begin(), end, tag) == end) edge.tags[edge.count++] = tag;
}

std::size_t ChannelGraph::num_dependencies() const {
  std::size_t n = 0;
  for (const auto& s : succ_) n += s.size();
  return n;
}

std::span<const EdgeTag> ChannelGraph::edge_tags(ChannelId from, ChannelId to) const {
  const auto& s = succ_.at(from);
  const auto it = std::lower_bound(s.begin(), s.end(), to);
  if (it == s.end() || *it != to) return {};
  const TagSet& edge = tags_[from][static_cast<std::size_t>(it - s.begin())];
  return {edge.tags.data(), edge.count};
}

bool ChannelGraph::acyclic() const { return !find_cycle().has_value(); }

std::optional<std::vector<ChannelId>> ChannelGraph::find_cycle() const {
  return find_cycle_if({});
}

std::optional<std::vector<ChannelId>> ChannelGraph::find_cycle_if(
    const std::function<bool(ChannelId, ChannelId)>& edge_ok) const {
  // Iterative three-colour DFS keeping the grey path for cycle extraction.
  enum class Colour : std::uint8_t { White, Grey, Black };
  std::vector<Colour> colour(succ_.size(), Colour::White);
  std::vector<std::pair<ChannelId, std::size_t>> stack;  // (channel, next-succ index)
  std::vector<ChannelId> path;

  for (ChannelId root = 0; root < succ_.size(); ++root) {
    if (colour[root] != Colour::White) continue;
    stack.emplace_back(root, 0);
    colour[root] = Colour::Grey;
    path.push_back(root);
    while (!stack.empty()) {
      auto& [c, idx] = stack.back();
      if (idx < succ_[c].size()) {
        const ChannelId next = succ_[c][idx++];
        if (edge_ok && !edge_ok(c, next)) continue;
        if (colour[next] == Colour::Grey) {
          // Cycle: suffix of `path` from the first occurrence of `next`.
          const auto it = std::find(path.begin(), path.end(), next);
          return std::vector<ChannelId>(it, path.end());
        }
        if (colour[next] == Colour::White) {
          colour[next] = Colour::Grey;
          stack.emplace_back(next, 0);
          path.push_back(next);
        }
      } else {
        colour[c] = Colour::Black;
        stack.pop_back();
        path.pop_back();
      }
    }
  }
  return std::nullopt;
}

ChannelGraph build_unicast_cdg(const topo::Topology& topology, const RoutingFunction& route) {
  ChannelGraph g(topology.num_channels());
  const std::uint32_t n = topology.num_nodes();
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      NodeId cur = src;
      ChannelId prev = topo::kInvalidChannel;
      std::uint32_t hops = 0;
      while (cur != dst) {
        const NodeId next = route(cur, dst);
        if (next == topo::kInvalidNode) break;
        const ChannelId c = topology.channel(cur, next);
        if (c == topo::kInvalidChannel) {
          throw std::logic_error("routing function returned a non-neighbour");
        }
        if (prev != topo::kInvalidChannel) g.add_dependency(prev, c);
        prev = c;
        cur = next;
        if (++hops > topology.num_nodes()) {
          throw std::logic_error("routing function does not terminate");
        }
      }
    }
  }
  return g;
}

}  // namespace mcnet::cdg
