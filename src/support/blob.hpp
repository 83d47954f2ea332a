// Flat binary serialization for checkpoint blobs.
//
// The optimistic scheduler's periodic checkpoints capture a rank's
// replayable state (DESIGN.md §15): the engine's cursors plus an opaque
// application blob written by the layers that own target-program state
// (smpi::Comm, the IR interpreter, the obs recorder shard). BlobWriter /
// BlobReader are the framing those layers share. The format is private to
// one process image — blobs never cross runs or hosts — so raw
// little-endian memcpy of trivially copyable types is exact and cheap.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace stgsim {

class BlobWriter {
 public:
  explicit BlobWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }

  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof v);
  }

  template <typename T>
  void vec_pod(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class BlobReader {
 public:
  BlobReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BlobReader(const std::vector<std::uint8_t>& v)
      : BlobReader(v.data(), v.size()) {}

  void raw(void* p, std::size_t n) {
    STGSIM_CHECK(pos_ + n <= size_) << "checkpoint blob truncated";
    if (n == 0) return;  // p may be null (an empty vector's data())
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return get<double>(); }

  std::string str() {
    const std::uint64_t n = u64();
    STGSIM_CHECK(pos_ + n <= size_) << "checkpoint blob truncated";
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    raw(&v, sizeof v);
    return v;
  }

  template <typename T>
  void vec_pod(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    out->resize(static_cast<std::size_t>(n));
    raw(out->data(), out->size() * sizeof(T));
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace stgsim
