// Stackful fibers for process-oriented simulation.
//
// MPI-Sim simulates each target MPI process with a thread on the host; we
// use fibers instead of OS threads so a single host process can hold
// hundreds of thousands of target processes (the paper simulates Sweep3D
// on 10,000 target processors). A switch is a few instructions of x86-64
// assembly that save the callee-saved registers and the floating-point
// control words and make no system call.
//
// Fibers have no stacks of their own. Each engine worker owns one
// RunStack, a guarded mapping its fibers run on one at a time. When a fiber
// yields, resume() copies its live frames (stack pointer to stack top, a
// few KiB) into a heap buffer; the next resume() copies them back to the
// same addresses before switching in. Frames hold absolute addresses
// (return addresses, saved frame pointers, pointers to locals), so two
// rules follow: a fiber always resumes on the run stack it was created
// for, and nothing outside a suspended fiber may point into its frames,
// since another fiber's frames occupy those addresses while it waits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>

namespace stgsim::simk {

/// Thrown when a run stack cannot be mapped: the host is out of address
/// space or memory. The harness reports it as an out_of_memory outcome.
class RunStackMapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The stack an engine worker's fibers run on: `bytes` rounded up to whole
/// pages, in one mapping with a PROT_NONE guard page below it, so a fiber
/// that runs past the bottom faults instead of writing into other memory.
class RunStack {
 public:
  explicit RunStack(std::size_t bytes);
  RunStack(const RunStack&) = delete;
  RunStack& operator=(const RunStack&) = delete;
  ~RunStack();

  std::size_t bytes() const { return bytes_; }
  /// Lowest usable address; the guard page is the page below it.
  std::uint8_t* lo() const { return lo_; }
  std::uint8_t* top() const { return lo_ + bytes_; }

 private:
  std::uint8_t* lo_ = nullptr;
  std::size_t bytes_ = 0;
};

/// A suspendable call stack. Fibers are cooperatively scheduled: the
/// scheduler calls resume(), the fiber calls Fiber::yield_to_scheduler().
class Fiber {
 public:
  using BodyFn = std::function<void()>;

  /// Creates a fiber that will run `body` on `stack` at its first resume.
  /// It touches no memory until then, and saves nothing before it yields.
  Fiber(BodyFn body, RunStack& stack);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  /// Frees the saved frames. A fiber destroyed while suspended is never
  /// unwound: its RAII state leaks (the engine unwinds first).
  ~Fiber();

  /// Runs the fiber until it yields or its body returns, then saves its
  /// live frames off the run stack (or frees them once it finished). Must
  /// be called from scheduler context (not from inside a fiber), with no
  /// other fiber running on this run stack. If the frames cannot be saved
  /// the fiber is lost: it counts as finished and resume() throws
  /// std::bad_alloc.
  void resume();

  /// Suspends the currently running fiber, returning control to the
  /// scheduler that resumed it. Must be called from inside a fiber.
  static void yield_to_scheduler();

  /// The fiber currently executing on this OS thread, or nullptr.
  static Fiber* current();

  bool finished() const { return finished_; }

  /// Bytes of live frames the last yield saved (0 before the first yield
  /// and once finished), and where they are kept.
  std::size_t saved_bytes() const { return saved_bytes_; }
  const std::uint8_t* saved_frames() const { return saved_; }

  /// Test hook: called with saved_bytes() after every yield, on the thread
  /// that resumed the fiber. Null (the default) disables it.
  using SaveHook = void (*)(std::size_t bytes);
  static void set_save_hook(SaveHook hook);

 private:
  /// The first frame on the run stack: runs current()'s body.
  [[noreturn]] static void entry() noexcept;
  [[noreturn]] void run_body();
  /// Copies the frames below the stack top into the heap buffer.
  void save_frames();

  BodyFn body_;
  RunStack& stack_;
  /// This fiber's stack pointer while switched out; null until it starts.
  void* sp_ = nullptr;
  void* caller_sp_ = nullptr;  ///< the resumer's stack pointer while running
  std::uint8_t* saved_ = nullptr;  ///< live frames while suspended (malloc)
  std::size_t saved_bytes_ = 0;
  std::size_t saved_capacity_ = 0;
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
