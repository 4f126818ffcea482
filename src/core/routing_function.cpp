#include "core/routing_function.hpp"

#include <stdexcept>

namespace mcnet::mcast {

topo::NodeId LabelRouter::next_hop(topo::NodeId cur, topo::NodeId dst) const {
  if (cur == dst) return topo::kInvalidNode;
  const bool high = labeling_->label(cur) < labeling_->label(dst);
  // Rank labels so that "better" is always "larger": the label itself on
  // the high side, its complement on the low side.  A neighbour p is
  // label-monotone iff rank(cur) < rank(p) <= rank(dst).
  const auto rank = [&](topo::NodeId u) {
    const std::uint32_t l = labeling_->label(u);
    return high ? l : ~l;
  };
  const std::uint32_t cur_rank = rank(cur);
  std::uint32_t limit = rank(dst);
  const std::uint32_t dist = topology_->distance(cur, dst);
  // Visit the monotone neighbours best label first (labels are distinct,
  // so the order is strict).  The first one that moves strictly closer is
  // the repaired Lemma 6.4 choice; if none does, the best-labelled one is
  // the literal rule (see header erratum).
  topo::NodeId literal = topo::kInvalidNode;
  for (;;) {
    topo::NodeId best = topo::kInvalidNode;
    std::uint32_t best_rank = cur_rank;
    for (const topo::NodeId p : topology_->neighbors(cur)) {
      const std::uint32_t r = rank(p);
      if (r > best_rank && r <= limit) {
        best = p;
        best_rank = r;
      }
    }
    if (best == topo::kInvalidNode) break;
    if (topology_->distance(best, dst) < dist) return best;
    if (literal == topo::kInvalidNode) literal = best;
    limit = best_rank - 1;  // best_rank > cur_rank, so this cannot wrap
  }
  // The Hamiltonian-path neighbour at label l(cur) +/- 1 is always
  // monotone, so R can never be stuck.
  if (literal != topo::kInvalidNode) return literal;
  throw std::logic_error("routing function R stuck");
}

PathRoute LabelRouter::route_path(topo::NodeId source, std::span<const topo::NodeId> targets,
                                  std::optional<topo::NodeId> forced_first_hop,
                                  std::uint8_t channel_class) const {
  PathRoute path;
  path.channel_class = channel_class;
  // Every hop of R moves monotonically in label, so the label gap to the
  // last target bounds the hop count (the forced hop is monotone too).
  std::uint32_t gap = 0;
  if (!targets.empty()) {
    const std::uint32_t ls = labeling_->label(source);
    const std::uint32_t lt = labeling_->label(targets.back());
    gap = ls < lt ? lt - ls : ls - lt;
  }
  path.nodes.reserve(static_cast<std::size_t>(gap) + 2);
  path.delivery_hops.reserve(targets.size());
  path.nodes.push_back(source);
  topo::NodeId w = source;
  if (forced_first_hop && !targets.empty()) {
    if (!topology_->adjacent(source, *forced_first_hop)) {
      throw std::invalid_argument("forced first hop is not a neighbour");
    }
    w = *forced_first_hop;
    path.nodes.push_back(w);
    // The forced hop may already be the first target.
  }
  for (const topo::NodeId d : targets) {
    while (w != d) {
      w = next_hop(w, d);
      path.nodes.push_back(w);
      if (path.nodes.size() > labeling_->size() + 1) {
        throw std::logic_error("label routing loops");
      }
    }
    path.delivery_hops.push_back(static_cast<std::uint32_t>(path.nodes.size() - 1));
  }
  return path;
}

}  // namespace mcnet::mcast
