// Unbounded single-producer single-consumer lane used as a cross-partition
// mailbox by the threaded scheduler.
//
// One lane connects one (sending worker, receiving worker) pair. The
// sending worker is the only producer and the receiving worker the only
// consumer, so the lane needs no locks — just acquire/release pairs on
// each chunk's fill count and link.
//
// The lane is a linked list of fixed-size chunks, so push never fails and
// never blocks: a burst of cross-partition traffic only links another
// chunk. The consumer hands each drained chunk back through a one-slot
// spare, so a lane in steady state allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>

namespace stgsim::simk {

template <typename T, std::size_t kChunkSlots = 64>
class SpscLane {
  static_assert(kChunkSlots >= 1);

 public:
  SpscLane() : head_(new Chunk), tail_(head_) {}
  ~SpscLane() {
    while (head_ != nullptr) {
      Chunk* next = head_->next.load(std::memory_order_relaxed);
      delete head_;
      head_ = next;
    }
    delete spare_.load(std::memory_order_relaxed);
  }

  SpscLane(const SpscLane&) = delete;
  SpscLane& operator=(const SpscLane&) = delete;

  /// Producer side.
  void push(T&& v) {
    std::size_t n = tail_->filled.load(std::memory_order_relaxed);
    if (n == kChunkSlots) {
      Chunk* c = spare_.exchange(nullptr, std::memory_order_acquire);
      if (c == nullptr) {
        c = new Chunk;
      } else {
        c->filled.store(0, std::memory_order_relaxed);
        c->next.store(nullptr, std::memory_order_relaxed);
      }
      tail_->next.store(c, std::memory_order_release);
      tail_ = c;
      n = 0;
    }
    tail_->slots[n] = std::move(v);
    tail_->filled.store(n + 1, std::memory_order_release);
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T* out) {
    if (read_ == kChunkSlots) {
      Chunk* next = head_->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;
      // The producer linked `next` only after filling head_, and never
      // touches head_ again: it is ours to recycle.
      delete spare_.exchange(head_, std::memory_order_acq_rel);
      head_ = next;
      read_ = 0;
    }
    if (head_->filled.load(std::memory_order_acquire) == read_) return false;
    *out = std::move(head_->slots[read_++]);
    return true;
  }

 private:
  struct Chunk {
    T slots[kChunkSlots];
    std::atomic<std::size_t> filled{0};  ///< slots published by the producer
    std::atomic<Chunk*> next{nullptr};
  };

  alignas(64) Chunk* head_;        ///< consumer's chunk
  std::size_t read_ = 0;           ///< consumer's next slot in head_
  alignas(64) Chunk* tail_;        ///< producer's chunk
  std::atomic<Chunk*> spare_{nullptr};  ///< drained chunk awaiting reuse
};

}  // namespace stgsim::simk
