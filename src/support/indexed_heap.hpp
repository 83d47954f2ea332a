// Indexed binary min-heap over small-integer ids with decrease-key by
// position index. The scheduler's working set is "runnable processes keyed
// by virtual clock": ids are dense rank numbers, so the id -> heap-slot
// map is a flat vector and every operation is O(log n) with no allocation
// after reserve(). Ties break toward the smaller id — the same
// (key, id) lexicographic order a std::priority_queue of pairs yields —
// which is what keeps scheduling deterministic across refactors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace stgsim {

template <typename Key>
class IndexedMinHeap {
 public:
  IndexedMinHeap() = default;
  explicit IndexedMinHeap(int capacity) { reset(capacity); }

  /// Clears the heap and admits ids in [0, capacity).
  void reset(int capacity) {
    heap_.clear();
    heap_.reserve(static_cast<std::size_t>(capacity));
    pos_.assign(static_cast<std::size_t>(capacity), kAbsent);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  int capacity() const { return static_cast<int>(pos_.size()); }

  bool contains(int id) const {
    return pos_[static_cast<std::size_t>(id)] != kAbsent;
  }

  Key key_of(int id) const {
    STGSIM_DCHECK(contains(id));
    return heap_[static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)])]
        .key;
  }

  /// Inserts an id that must not already be present.
  void push(int id, Key key) {
    STGSIM_DCHECK(id >= 0 && id < capacity());
    STGSIM_DCHECK(!contains(id));
    pos_[static_cast<std::size_t>(id)] = static_cast<int>(heap_.size());
    heap_.push_back(Entry{key, id});
    sift_up(heap_.size() - 1);
  }

  /// Re-keys a present id (up or down).
  void update(int id, Key key) {
    const std::size_t i =
        static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)]);
    STGSIM_DCHECK(pos_[static_cast<std::size_t>(id)] != kAbsent);
    const Key old = heap_[i].key;
    heap_[i].key = key;
    if (key < old) {
      sift_up(i);
    } else if (old < key) {
      sift_down(i);
    }
  }

  void push_or_update(int id, Key key) {
    if (contains(id)) {
      update(id, key);
    } else {
      push(id, key);
    }
  }

  /// Minimum (key, id) pair without removing it.
  std::pair<Key, int> top() const {
    STGSIM_DCHECK(!heap_.empty());
    return {heap_.front().key, heap_.front().id};
  }

  /// Key of the second-smallest (key, id) pair (a child of the root), or
  /// `none` with fewer than two ids queued.
  Key second_key(Key none) const {
    if (heap_.size() < 2) return none;
    if (heap_.size() == 2) return heap_[1].key;
    return heap_[2].key < heap_[1].key ? heap_[2].key : heap_[1].key;
  }

  /// Sets `out` to the ids of the K smallest (key, id) pairs, smallest
  /// first, leaving the heap as it is: a best-first walk down from the
  /// root, whose frontier never holds more than K + 1 slots.
  template <std::size_t K>
  void smallest(std::vector<int>* out) const {
    out->clear();
    std::size_t open[K + 1] = {0};
    std::size_t n = heap_.empty() ? 0 : 1;
    while (n > 0 && out->size() < K) {
      std::size_t* best =
          std::min_element(open, open + n, [&](std::size_t a, std::size_t b) {
            return less(heap_[a], heap_[b]);
          });
      const std::size_t i = *best;
      *best = open[--n];
      out->push_back(heap_[i].id);
      for (std::size_t c = 2 * i + 1; c <= 2 * i + 2; ++c) {
        if (c < heap_.size()) open[n++] = c;
      }
    }
  }

  /// Removes and returns the id with the minimum (key, id) pair.
  int pop() {
    STGSIM_DCHECK(!heap_.empty());
    const int id = heap_.front().id;
    remove_at(0);
    return id;
  }

  /// Removes a present id from anywhere in the heap.
  void erase(int id) {
    STGSIM_DCHECK(contains(id));
    remove_at(static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)]));
  }

 private:
  struct Entry {
    Key key;
    int id;
  };
  static constexpr int kAbsent = -1;

  // (key, id) lexicographic — the deterministic tie-break.
  static bool less(const Entry& a, const Entry& b) {
    return a.key < b.key || (!(b.key < a.key) && a.id < b.id);
  }

  void place(std::size_t i, Entry e) {
    heap_[i] = e;
    pos_[static_cast<std::size_t>(e.id)] = static_cast<int>(i);
  }

  void sift_up(std::size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  void remove_at(std::size_t i) {
    pos_[static_cast<std::size_t>(heap_[i].id)] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    place(i, last);
    sift_down(i);
    if (static_cast<std::size_t>(pos_[static_cast<std::size_t>(last.id)]) == i) {
      sift_up(i);
    }
  }

  std::vector<Entry> heap_;
  std::vector<int> pos_;  // id -> heap index, kAbsent when not queued
};

}  // namespace stgsim
