// Stackful fibers for process-oriented simulation.
//
// MPI-Sim simulates each target MPI process with a thread on the host; we
// use ucontext fibers instead of OS threads so a single host process can
// hold tens of thousands of target processes (the paper simulates Sweep3D
// on 10,000 target processors). Stacks are mmap'ed with a guard page so a
// runaway target program faults instead of corrupting a neighbouring fiber.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace stgsim::simk {

/// A suspendable call stack. Fibers are cooperatively scheduled: the
/// scheduler calls resume(), the fiber calls Fiber::yield_to_scheduler().
class Fiber {
 public:
  using BodyFn = std::function<void()>;

  /// Creates a fiber that will run `body` on first resume. `stack_bytes`
  /// is rounded up to whole pages; one extra guard page is added below.
  Fiber(BodyFn body, std::size_t stack_bytes);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  /// Runs the fiber until it yields or its body returns.
  /// Must be called from scheduler context (not from inside a fiber).
  void resume();

  /// Suspends the currently running fiber, returning control to the
  /// scheduler that resumed it. Must be called from inside a fiber.
  static void yield_to_scheduler();

  /// The fiber currently executing on this OS thread, or nullptr.
  static Fiber* current();

  bool finished() const { return finished_; }

  /// Total resume() calls across all fibers process-wide (stats). Counts
  /// resumes from every thread, so threaded-scheduler slice totals match
  /// the sequential scheduler's.
  static unsigned long long switch_count();

 private:
  static void trampoline(unsigned hi, unsigned lo);
  void run_body();

  BodyFn body_;
  ucontext_t context_{};
  ucontext_t return_context_{};
  void* stack_base_ = nullptr;   // mmap base (includes guard page)
  std::size_t map_bytes_ = 0;
  bool started_ = false;
  bool finished_ = false;
  // AddressSanitizer fiber bookkeeping (unused in other builds): this
  // fiber's fake stack while it is switched out, and the stack of the
  // context that last resumed it.
  void* fake_stack_ = nullptr;
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  // ThreadSanitizer fiber bookkeeping (unused in other builds): this
  // fiber's TSan context, and the context of whoever last resumed it.
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace stgsim::simk
