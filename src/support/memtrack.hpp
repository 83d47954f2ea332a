// Memory accounting for simulated target processes.
//
// Table 1 of the paper compares the total memory footprint of the
// direct-execution simulator against the compiler-optimized one. Every
// array a simulated program allocates goes through a MemoryTracker so the
// harness can report exact per-run target-data footprints, enforce a cap
// (to reproduce "exceeds available memory" outcomes without taking the
// host down), and record high-water marks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace stgsim {

/// Thrown when a run would exceed the configured memory cap; the harness
/// reports such configurations as "not simulatable" (paper Figs. 10/11).
class MemoryCapExceeded : public std::runtime_error {
 public:
  MemoryCapExceeded(std::size_t requested, std::size_t cap)
      : std::runtime_error("simulated allocation of " +
                           std::to_string(requested) +
                           " bytes exceeds memory cap of " +
                           std::to_string(cap) + " bytes"),
        requested_bytes(requested),
        cap_bytes(cap) {}

  std::size_t requested_bytes;
  std::size_t cap_bytes;
};

/// Thread-safe byte counter with a high-water mark and an optional cap.
class MemoryTracker {
 public:
  /// cap_bytes == 0 means "uncapped".
  explicit MemoryTracker(std::size_t cap_bytes = 0) : cap_(cap_bytes) {}

  void set_cap(std::size_t cap_bytes) { cap_ = cap_bytes; }
  std::size_t cap() const { return cap_; }

  /// Registers an allocation; throws MemoryCapExceeded over the cap.
  void add(std::size_t bytes) {
    const std::size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (cap_ != 0 && now > cap_) {
      current_.fetch_sub(bytes, std::memory_order_relaxed);
      throw MemoryCapExceeded(now, cap_);
    }
    // Racy max update is fine: publish-and-retry loop.
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  void remove(std::size_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  void reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
  std::size_t cap_ = 0;
};

/// A heap buffer whose size is charged against a MemoryTracker for its
/// whole lifetime. Simulated program arrays are TrackedBuffers. A
/// ledger-only buffer is charged the same bytes but owns no storage
/// (data() is null): the simplified program's dummy buffer, whose bytes
/// nothing reads or writes.
class TrackedBuffer {
 public:
  enum class Storage : std::uint8_t { kAllocated, kLedgerOnly };

  TrackedBuffer() = default;

  TrackedBuffer(MemoryTracker* tracker, std::size_t bytes,
                Storage storage = Storage::kAllocated)
      : tracker_(tracker), bytes_(bytes) {
    if (tracker_ != nullptr) tracker_->add(bytes_);
    if (storage == Storage::kAllocated) data_ = new std::uint8_t[bytes_]();
  }

  TrackedBuffer(const TrackedBuffer&) = delete;
  TrackedBuffer& operator=(const TrackedBuffer&) = delete;

  TrackedBuffer(TrackedBuffer&& other) noexcept { swap(other); }
  TrackedBuffer& operator=(TrackedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }

  ~TrackedBuffer() { release(); }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size_bytes() const { return bytes_; }
  bool valid() const { return data_ != nullptr; }

  double* as_doubles() { return reinterpret_cast<double*>(data_); }
  const double* as_doubles() const {
    return reinterpret_cast<const double*>(data_);
  }

 private:
  void release() {
    delete[] data_;
    if (tracker_ != nullptr) tracker_->remove(bytes_);
    data_ = nullptr;
    tracker_ = nullptr;
    bytes_ = 0;
  }

  void swap(TrackedBuffer& other) {
    std::swap(tracker_, other.tracker_);
    std::swap(bytes_, other.bytes_);
    std::swap(data_, other.data_);
  }

  MemoryTracker* tracker_ = nullptr;
  std::size_t bytes_ = 0;
  std::uint8_t* data_ = nullptr;
};

}  // namespace stgsim
