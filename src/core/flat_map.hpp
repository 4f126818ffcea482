// FlatMap: a sorted-vector associative container for the control-plane
// state that used to live in std::map nodes (ROADMAP item 2: "the
// per-group std::map state wants arena/flat storage at that size").
//
// One contiguous allocation per map instead of one node per entry.  Keys
// stay sorted, so lookups are binary searches over a dense array and
// iteration is a linear scan.  GroupService keeps each in-flight
// message's owed destinations, each receiver stream's early arrivals and
// its hook tables in FlatMaps; per-member and per-pair group state wants
// no search at all and lives in tables indexed by member slot.
//
// Semantics intentionally differ from std::map in one way that callers
// must respect: insertion and erasure invalidate ALL iterators and
// references (vector reallocation / element shifting).  Code that calls
// out to user callbacks must not hold a reference into a map the callback
// may insert into or erase from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace mcnet::util {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using storage_type = std::vector<value_type>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;

  FlatMap() = default;

  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }
  void reserve(std::size_t n) { data_.reserve(n); }

  [[nodiscard]] iterator begin() { return data_.begin(); }
  [[nodiscard]] iterator end() { return data_.end(); }
  [[nodiscard]] const_iterator begin() const { return data_.begin(); }
  [[nodiscard]] const_iterator end() const { return data_.end(); }

  [[nodiscard]] iterator lower_bound(const Key& k) {
    return std::lower_bound(data_.begin(), data_.end(), k, KeyLess{});
  }
  [[nodiscard]] const_iterator lower_bound(const Key& k) const {
    return std::lower_bound(data_.begin(), data_.end(), k, KeyLess{});
  }

  [[nodiscard]] iterator find(const Key& k) {
    const iterator it = lower_bound(k);
    return (it != data_.end() && equal(it->first, k)) ? it : data_.end();
  }
  [[nodiscard]] const_iterator find(const Key& k) const {
    const const_iterator it = lower_bound(k);
    return (it != data_.end() && equal(it->first, k)) ? it : data_.end();
  }

  [[nodiscard]] bool contains(const Key& k) const { return find(k) != data_.end(); }

  /// Insert a default-constructed value if absent; returns the mapped
  /// value.  Invalidates iterators/references on insertion.
  Value& operator[](const Key& k) { return try_emplace(k).first->second; }

  /// std::map::try_emplace semantics: no-op when the key exists.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& k, Args&&... args) {
    iterator it = lower_bound(k);
    if (it != data_.end() && equal(it->first, k)) return {it, false};
    it = data_.emplace(it, std::piecewise_construct, std::forward_as_tuple(k),
                       std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  /// Assign (inserting if absent); returns {iterator, inserted}.
  std::pair<iterator, bool> insert_or_assign(const Key& k, Value v) {
    iterator it = lower_bound(k);
    if (it != data_.end() && equal(it->first, k)) {
      it->second = std::move(v);
      return {it, false};
    }
    it = data_.emplace(it, k, std::move(v));
    return {it, true};
  }

  iterator erase(iterator it) { return data_.erase(it); }

  std::size_t erase(const Key& k) {
    const iterator it = find(k);
    if (it == data_.end()) return 0;
    data_.erase(it);
    return 1;
  }

  /// Remove every entry failing `keep(key, value)` in one pass.
  template <typename Pred>
  void retain(Pred keep) {
    data_.erase(std::remove_if(data_.begin(), data_.end(),
                               [&keep](const value_type& e) {
                                 return !keep(e.first, e.second);
                               }),
                data_.end());
  }

 private:
  struct KeyLess {
    Compare cmp{};
    bool operator()(const value_type& e, const Key& k) const { return cmp(e.first, k); }
  };
  [[nodiscard]] static bool equal(const Key& a, const Key& b) {
    Compare cmp{};
    return !cmp(a, b) && !cmp(b, a);
  }

  storage_type data_;
};

}  // namespace mcnet::util
