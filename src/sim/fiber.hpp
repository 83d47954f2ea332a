// Stackful fibers for process-oriented simulation.
//
// MPI-Sim simulates each target MPI process with a thread on the host; we
// use fibers instead of OS threads so a single host process can hold tens
// of thousands of target processes (the paper simulates Sweep3D on 10,000
// target processors). A switch is a few instructions of x86-64 assembly
// that save the callee-saved registers and the floating-point control words
// and make no system call. Stacks are carved from slabs a StackPool maps a
// few dozen at a time, each with a guard page below it, so a runaway target
// program faults instead of corrupting a neighbouring fiber.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace stgsim::simk {

/// Fiber stacks of one size, carved from slabs of up to kSlabStacks stacks
/// (one mmap each) with a PROT_NONE guard page below every stack. A
/// destroyed fiber's stack goes back on a free list for the next fiber;
/// the slabs are unmapped with the pool, which must outlive its fibers.
/// Thread-safe: fibers may be created and destroyed on any thread.
class StackPool {
 public:
  /// `stack_bytes` is rounded up to whole pages. `expected_stacks` sizes
  /// every slab (at most kSlabStacks), so a small run maps only what it
  /// uses.
  StackPool(std::size_t stack_bytes, std::size_t expected_stacks);
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool();

  std::size_t stack_bytes() const { return stack_bytes_; }

 private:
  friend class Fiber;

  static constexpr std::size_t kSlabStacks = 64;

  /// Low end of an unused stack of stack_bytes().
  void* acquire();
  void release(void* stack_lo);

  struct Slab {
    void* base;
    std::size_t bytes;
  };

  std::size_t stack_bytes_;
  std::size_t slab_stacks_;
  std::mutex mu_;            ///< guards free_ and slabs_
  std::vector<void*> free_;  ///< lowest address at the back
  std::vector<Slab> slabs_;
};

/// A suspendable call stack. Fibers are cooperatively scheduled: the
/// scheduler calls resume(), the fiber calls Fiber::yield_to_scheduler().
class Fiber {
 public:
  using BodyFn = std::function<void()>;

  /// Creates a fiber that will run `body` on first resume, on a stack
  /// taken from `stacks` (returned to it by the destructor).
  Fiber(BodyFn body, StackPool& stacks);

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

 private:
  /// The first frame on a fresh stack: runs current()'s body.
  [[noreturn]] static void entry() noexcept;
  [[noreturn]] void run_body();

  BodyFn body_;
  StackPool& stacks_;
  void* stack_lo_ = nullptr;
  void* sp_ = nullptr;         ///< this fiber's stack pointer while switched out
  void* caller_sp_ = nullptr;  ///< the resumer's stack pointer while running
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
