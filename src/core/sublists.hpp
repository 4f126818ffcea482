// Destination sublists of the tree routers (X-first and double-channel
// X-first), kept in one reused buffer: a hop's destination list is a range
// of the buffer, and its sublists are appended after the buffer's end while
// the hop's subtrees are routed, then dropped.  Routing a tree allocates
// nothing for its sublists once the buffer has grown.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace mcnet::mcast {

/// Appends the elements of buf[begin, end) to `buf`, grouped by
/// `class_of(element)` in class order and each group in its original order
/// (a stable partition); elements of class K or above are left out.
/// Group c is buf[bounds[c], bounds[c + 1]) of the returned bounds.
template <std::size_t K, class T, class ClassOf>
std::array<std::size_t, K + 1> append_sublists(std::vector<T>& buf, std::size_t begin,
                                               std::size_t end, ClassOf class_of) {
  std::array<std::size_t, K + 1> bounds{};
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t c = class_of(buf[i]);
    if (c < K) ++bounds[c + 1];
  }
  bounds[0] = buf.size();
  for (std::size_t c = 0; c < K; ++c) bounds[c + 1] += bounds[c];
  buf.resize(bounds[K]);
  std::array<std::size_t, K> fill{};
  for (std::size_t c = 0; c < K; ++c) fill[c] = bounds[c];
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t c = class_of(buf[i]);
    if (c < K) buf[fill[c]++] = buf[i];
  }
  return bounds;
}

}  // namespace mcnet::mcast
