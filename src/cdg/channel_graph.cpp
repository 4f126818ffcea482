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
  t[idx].add(tag);
}

namespace {

constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

std::size_t slot_of(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

}  // namespace

bool ChannelGraph::known_full(std::uint64_t key) const {
  if (full_.empty()) return false;
  const std::size_t mask = full_.size() - 1;
  for (std::size_t i = slot_of(key, mask);; i = (i + 1) & mask) {
    if (full_[i] == key) return true;
    if (full_[i] == kEmptyKey) return false;
  }
}

void ChannelGraph::note_full(std::uint64_t key) {
  if (2 * (num_full_ + 1) > full_.size()) {
    // Double the table and place its keys again.
    std::vector<std::uint64_t> old(std::max<std::size_t>(64, 2 * full_.size()), kEmptyKey);
    old.swap(full_);
    num_full_ = 0;
    for (const std::uint64_t k : old) {
      if (k != kEmptyKey) note_full(k);
    }
  }
  const std::size_t mask = full_.size() - 1;
  std::size_t i = slot_of(key, mask);
  while (full_[i] != kEmptyKey) i = (i + 1) & mask;
  full_[i] = key;
  ++num_full_;
}

void ChannelGraph::add_dependencies(ChannelId from, std::span<const ChannelId> targets,
                                    EdgeTag tag) {
  auto& s = succ_.at(from);
  auto& t = tags_.at(from);
  const std::uint64_t row_key = std::uint64_t{from} << 32;
  // Tag the edges that exist and count the new ones; edges with a full tag
  // set cannot change.
  std::size_t fresh = 0;
  auto it = s.begin();
  for (const ChannelId to : targets) {
    if (known_full(row_key | to)) continue;
    it = std::lower_bound(it, s.end(), to);
    if (it != s.end() && *it == to) {
      TagSet& edge = t[static_cast<std::size_t>(it - s.begin())];
      edge.add(tag);
      if (edge.count == kMaxTagsPerEdge) note_full(row_key | to);
    } else {
      ++fresh;
    }
  }
  if (fresh == 0) return;
  // Merge the new edges in from the back, so each entry moves at most once.
  std::size_t i = s.size();
  std::size_t j = targets.size();
  std::size_t k = s.size() + fresh;
  s.resize(k);
  t.resize(k);
  while (j > 0) {
    --k;
    if (i > 0 && s[i - 1] >= targets[j - 1]) {
      if (s[i - 1] == targets[j - 1]) --j;  // existing edge, tagged above
      --i;
      s[k] = s[i];
      t[k] = t[i];
    } else {
      --j;
      s[k] = targets[j];
      t[k] = TagSet{};
      t[k].add(tag);
    }
  }
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
