// Per-engine slab allocators for the message hot path.
//
// Direct-execution mode used to pay one heap allocation per send (the
// payload vector) plus one per inbox insertion (deque growth). Both now
// come from engine-owned pools:
//
//   * PayloadPool — size-classed free lists of payload buffers. A DE-mode
//     send copies into a recycled buffer; the buffer returns to the pool
//     when the last reference drops. AM-mode messages carry no payload and
//     never touch the pool. Buffers are refcounted (a small header ahead of
//     the data) so the optimistic scheduler's consumption log can retain a
//     delivered payload by sharing it (PayloadBuf::share) instead of deep
//     cloning it: payload bytes are written once at make() and read-only
//     afterwards, which makes aliasing safe (copy-on-write degenerates to
//     copy-never). One pool serves every worker: a buffer made on the
//     sending worker is freed wherever its last handle drops, so the free
//     lists sit behind a spinlock.
//   * ObjectArena<T> — chunked slab of intrusively-linked nodes; the
//     engine stores queued messages in ObjectArena<Message> nodes, so an
//     empty inbox channel holds no heap storage at all (three words), and
//     node capacity is bounded by the peak number of in-flight messages,
//     not by message churn. An arena has one owner and no lock: the engine
//     keeps one per worker, and a message's node is acquired and released
//     on its destination rank's home worker (the only thread that queues
//     into or matches from that rank's inbox).
//
// Neither pool charges MemoryTracker — payloads are simulator overhead,
// not target-visible data (target arrays are charged where they are
// allocated, as before).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace stgsim::simk {

/// Tiny test-and-set lock: critical sections here are a few instructions,
/// so a futex-based mutex would be overkill on the uncontended (sequential
/// scheduler) path.
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

class PayloadPool;

/// Move-only handle to a refcounted payload buffer; the storage returns to
/// its pool when the last handle drops. Copying is deliberately disabled —
/// aliasing must be explicit via share().
class PayloadBuf {
 public:
  PayloadBuf() = default;
  PayloadBuf(PayloadBuf&& o) noexcept { steal(o); }
  PayloadBuf& operator=(PayloadBuf&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  PayloadBuf(const PayloadBuf&) = delete;
  PayloadBuf& operator=(const PayloadBuf&) = delete;
  ~PayloadBuf() { reset(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const std::uint8_t* data() const { return data_; }
  std::uint8_t* data() { return data_; }

  /// Returns a second handle aliasing the same storage (refcount bump, no
  /// copy). Payload bytes are immutable after make(), so readers through
  /// either handle observe identical data.
  PayloadBuf share() const;

  /// Drops this handle; the storage returns to the pool when the last
  /// handle (original or shared) resets.
  void reset();

 private:
  friend class PayloadPool;
  PayloadBuf(PayloadPool* pool, std::uint8_t* data, std::size_t size, int cls)
      : pool_(pool), data_(data), size_(size), cls_(cls) {}

  void steal(PayloadBuf& o) {
    pool_ = o.pool_;
    data_ = o.data_;
    size_ = o.size_;
    cls_ = o.cls_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
    o.cls_ = 0;
  }

  PayloadPool* pool_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  int cls_ = 0;
};

/// Size-classed (geometric, x4 from 64 B to 1 MiB) payload allocator.
/// Oversized requests fall back to the heap but still release through the
/// same PayloadBuf interface.
class PayloadPool {
 public:
  PayloadPool() = default;
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  ~PayloadPool() {
    STGSIM_DCHECK(outstanding_.load() == 0)
        << "payload buffers outlive their pool";
    for (auto& cls : free_) {
      for (std::uint8_t* p : cls) delete[] p;
    }
  }

  /// Copies [src, src+n) into a pooled buffer with refcount 1. n == 0
  /// yields an empty, pool-free buffer. The bytes are immutable from here
  /// on — share() relies on it.
  PayloadBuf make(const void* src, std::size_t n) {
    if (n == 0) return PayloadBuf();
    const int cls = class_for(n);
    std::uint8_t* base = nullptr;
    if (cls >= 0) {
      lock_.lock();
      auto& list = free_[static_cast<std::size_t>(cls)];
      if (!list.empty()) {
        base = list.back();
        list.pop_back();
      }
      lock_.unlock();
      if (base == nullptr) base = new std::uint8_t[kHeaderBytes + class_bytes(cls)];
    } else {
      base = new std::uint8_t[kHeaderBytes + n];
    }
    std::uint8_t* data = base + kHeaderBytes;
    new (base) std::atomic<std::uint64_t>(1);
    std::memcpy(data, src, n);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    return PayloadBuf(this, data, n, cls);
  }

  struct Stats {
    std::uint64_t outstanding = 0;   ///< live buffers
    std::size_t retained_bytes = 0;  ///< capacity parked in free lists
  };
  Stats stats() {
    Stats s;
    s.outstanding = outstanding_.load(std::memory_order_relaxed);
    lock_.lock();
    for (int c = 0; c < kClasses; ++c) {
      s.retained_bytes += free_[static_cast<std::size_t>(c)].size() *
                          class_bytes(c);
    }
    lock_.unlock();
    return s;
  }

 private:
  friend class PayloadBuf;
  static constexpr int kClasses = 8;  // 64 << 2c: 64 B ... 1 MiB
  /// Refcount header ahead of the payload bytes; 16 bytes keeps the data
  /// pointer at operator new[]'s default alignment.
  static constexpr std::size_t kHeaderBytes = 16;

  static std::atomic<std::uint64_t>* header_of(std::uint8_t* data) {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(data - kHeaderBytes);
  }

  static std::size_t class_bytes(int cls) {
    return std::size_t{64} << (2 * cls);
  }
  static int class_for(std::size_t n) {
    for (int c = 0; c < kClasses; ++c) {
      if (n <= class_bytes(c)) return c;
    }
    return -1;  // direct heap allocation
  }

  /// Drops one reference to `data`'s buffer; the storage is reclaimed
  /// only when the last reference goes.
  void unref(std::uint8_t* data, int cls) {
    if (header_of(data)->fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    std::uint8_t* base = data - kHeaderBytes;
    if (cls < 0) {
      delete[] base;
      return;
    }
    lock_.lock();
    free_[static_cast<std::size_t>(cls)].push_back(base);
    lock_.unlock();
  }

  SpinLock lock_;
  std::vector<std::uint8_t*> free_[kClasses];
  std::atomic<std::uint64_t> outstanding_{0};
};

inline void PayloadBuf::reset() {
  if (pool_ != nullptr) pool_->unref(data_, cls_);
  pool_ = nullptr;
  data_ = nullptr;
  size_ = 0;
  cls_ = 0;
}

inline PayloadBuf PayloadBuf::share() const {
  if (pool_ == nullptr) return PayloadBuf();
  PayloadPool::header_of(data_)->fetch_add(1, std::memory_order_relaxed);
  return PayloadBuf(pool_, data_, size_, cls_);
}

/// Chunked slab of linked-list nodes with a free list. Node addresses are
/// stable for the arena's lifetime; chunks are only freed on destruction,
/// so capacity is bounded by the peak live-node count. Single-owner: the
/// caller guarantees that one thread at a time uses the arena.
template <typename T>
class ObjectArena {
 public:
  struct Node {
    T value{};
    Node* next = nullptr;
  };

  ObjectArena() = default;
  ObjectArena(const ObjectArena&) = delete;
  ObjectArena& operator=(const ObjectArena&) = delete;

  /// Takes a node from the free list (or grows by one chunk) and moves
  /// `v` into it.
  Node* acquire(T&& v) {
    Node* n = free_;
    if (n != nullptr) {
      free_ = n->next;
    } else {
      n = grow();
    }
    live_ += 1;
    n->value = std::move(v);
    n->next = nullptr;
    return n;
  }

  /// Moves the value out and recycles the node.
  T release(Node* n) {
    T v = std::move(n->value);
    recycle(n);
    return v;
  }

  /// Recycles a node, destroying its value (teardown paths).
  void recycle(Node* n) {
    n->value = T{};  // release held resources (e.g. payload buffers) now
    n->next = free_;
    free_ = n;
    live_ -= 1;
  }

  struct Stats {
    std::uint64_t live = 0;      ///< nodes currently queued
    std::uint64_t capacity = 0;  ///< nodes ever allocated (peak demand)
  };
  Stats stats() const { return Stats{live_, capacity_}; }

 private:
  static constexpr std::size_t kChunkNodes = 256;

  Node* grow() {
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node* chunk = chunks_.back().get();
    // Thread all but the first node onto the free list; hand out the first.
    for (std::size_t i = 1; i + 1 < kChunkNodes; ++i) {
      chunk[i].next = &chunk[i + 1];
    }
    chunk[kChunkNodes - 1].next = free_;
    free_ = &chunk[1];
    capacity_ += kChunkNodes;
    return &chunk[0];
  }

  Node* free_ = nullptr;
  std::uint64_t live_ = 0;
  std::uint64_t capacity_ = 0;
  std::vector<std::unique_ptr<Node[]>> chunks_;
};

}  // namespace stgsim::simk
