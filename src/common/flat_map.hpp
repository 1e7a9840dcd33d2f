// Sorted-vector map for the per-step hot paths.
//
// The agent systems keep small per-node / per-agent tables (visit history,
// pheromone rows, distance vectors, LSA databases) that used to be
// std::map<NodeId, …>: one heap node per entry and pointer-chasing on every
// per-step scan. FlatMap stores the entries in one contiguous vector sorted
// by key: lookups are binary search, inserts shift the tail, and iteration
// is a linear walk over cache lines.
//
// CONTRACT (docs/ARCHITECTURE.md, "bit-identical iteration order"): every
// operation matches std::map semantics exactly — ascending-key iteration,
// insert-if-absent emplace, erase returning the successor — so replacing a
// std::map with a FlatMap cannot change a single output bit.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

template <class Key, class Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  FlatMap(std::initializer_list<value_type> init) {
    for (const auto& kv : init) insert_or_assign(kv.first, kv.second);
  }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  iterator lower_bound(const Key& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }
  const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }

  iterator find(const Key& key) {
    auto it = lower_bound(key);
    return it != end() && it->first == key ? it : end();
  }
  const_iterator find(const Key& key) const {
    auto it = lower_bound(key);
    return it != end() && it->first == key ? it : end();
  }

  bool contains(const Key& key) const { return find(key) != end(); }

  const Value& at(const Key& key) const {
    auto it = find(key);
    AGENTNET_REQUIRE(it != end(), "FlatMap::at: key not present");
    return it->second;
  }

  /// std::map semantics: default-constructs the value on a miss.
  Value& operator[](const Key& key) {
    auto it = lower_bound(key);
    if (it == end() || it->first != key)
      it = entries_.insert(it, value_type{key, Value{}});
    return it->second;
  }

  /// Inserts only when absent (std::map::emplace for a (key, value) pair).
  std::pair<iterator, bool> emplace(const Key& key, Value value) {
    auto it = lower_bound(key);
    if (it != end() && it->first == key) return {it, false};
    it = entries_.insert(it, value_type{key, std::move(value)});
    return {it, true};
  }

  std::pair<iterator, bool> insert_or_assign(const Key& key, Value value) {
    auto it = lower_bound(key);
    if (it != end() && it->first == key) {
      it->second = std::move(value);
      return {it, false};
    }
    it = entries_.insert(it, value_type{key, std::move(value)});
    return {it, true};
  }

  /// Erases the entry at `pos`; returns the iterator past it (std::map's
  /// erase-while-iterating pattern carries over unchanged).
  iterator erase(iterator pos) { return entries_.erase(pos); }

  std::size_t erase(const Key& key) {
    auto it = find(key);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }

  /// Appends an entry whose key exceeds every present key (merge walks
  /// that emit in ascending order build a map without binary searches).
  void append(const Key& key, Value value) {
    AGENTNET_ASSERT(entries_.empty() || entries_.back().first < key);
    entries_.emplace_back(key, std::move(value));
  }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

  /// Checkpoint support. Keys (integral) go through scalar(); the caller
  /// supplies the value codec. load_state enforces strictly-ascending key
  /// order so a tampered stream cannot break the binary-search invariant.
  template <class WriteValueFn>
  void save_state(snapshot::ByteWriter& w, WriteValueFn&& write_value) const {
    w.size(entries_.size());
    for (const auto& [key, value] : entries_) {
      w.scalar(key);
      write_value(w, value);
    }
  }
  template <class ReadValueFn>
  void load_state(snapshot::ByteReader& r, ReadValueFn&& read_value) {
    const std::size_t n = r.counted(8);
    entries_.clear();
    entries_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Key key = r.template scalar<Key>();
      AGENTNET_REQUIRE(entries_.empty() || entries_.back().first < key,
                       "snapshot: FlatMap keys not strictly ascending");
      Value value{};
      read_value(r, value);
      entries_.emplace_back(std::move(key), std::move(value));
    }
  }

 private:
  std::vector<value_type> entries_;
};

}  // namespace agentnet
