// Host-time spans the benchmark records around its own calls into STGSim.
//
// A Scope always measures its interval with steady_clock, so timed and
// traced runs share one code path; only an enabled Tracer keeps the span
// (name, start, end, parent, request id, thread) in memory. Parents come
// from a per-thread stack of open scopes, so a span's children are the
// scopes opened inside it on the same thread and never overlap each other.
// That makes self time exact: a span's duration minus its children's.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace stgbench {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = -1;
    int parent = -1;     ///< enclosing span on the same thread, or -1
    std::int64_t req = -1;  ///< request id shared by one request's spans
    int tid = 0;
    double seconds() const { return (end_ns - start_ns) * 1e-9; }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Times [construction, stop()) — or until destruction — and records the
  /// span when the tracer is enabled. A request id of -1 inherits the
  /// parent's.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t req = -1);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its length in seconds.
    double stop();
    int id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
    bool open_ = true;
  };

  /// Total seconds per span name over `root` and everything below it.
  std::map<std::string, double> totals_under(int root) const;

  /// Duration of span `id` minus the durations of its direct children.
  double self_seconds(int id) const;

  /// Chrome trace-event JSON ("X" events, microseconds of host time), each
  /// event carrying its parent, request id and self time in "args".
  void write_chrome_trace(const std::string& path) const;

 private:
  /// Spans recorded so far, in completion order.
  std::vector<Span> spans() const;

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int next_id_ = 0;          // guarded by mu_
};

}  // namespace stgbench
