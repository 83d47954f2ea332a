#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "support/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "simk::Fiber switches stacks in x86-64 assembly; port stgsim_switch_stack"
#endif

// Saves the callee-saved registers, MXCSR and the x87 control word on the
// current stack, stores the stack pointer to *save_sp, then loads load_sp
// and restores the same set from it: a System V call that returns on
// another stack. The signal mask is process state the fibers share, so
// nothing here enters the kernel. A fiber's first resume writes the frame
// it starts from: zeroed registers, the resumer's control words, and
// Fiber::entry as the return address.
extern "C" void stgsim_switch_stack(void** save_sp, void* load_sp);
asm(R"(
    .pushsection .text
    .p2align 4
    .globl stgsim_switch_stack
    .hidden stgsim_switch_stack
    .type stgsim_switch_stack, @function
stgsim_switch_stack:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size stgsim_switch_stack, .-stgsim_switch_stack
    .popsection
)");

namespace stgsim::simk {

namespace {

thread_local Fiber* g_current_fiber = nullptr;
std::atomic<Fiber::SaveHook> g_save_hook{nullptr};

// AddressSanitizer tracks one stack per thread. Every stack switch below
// is announced to it, naming the run stack, so a throw on a fiber (which
// unpoisons "the" stack in __asan_handle_no_return) sees the right bounds
// instead of reporting the scheduler's frames as stack-use-after-scope,
// and detect_stack_use_after_return's fake frames follow the fiber.
// ThreadSanitizer likewise keeps one shadow call stack and vector clock
// per context: each switch names the TSan fiber it enters, so a fiber
// resumed by another worker thread carries its own history with it. No-ops
// in other builds.
void start_switch([[maybe_unused]] void** fake_stack_save,
                  [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size,
                  [[maybe_unused]] void* tsan_to) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_to, 0);
#endif
}

void finish_switch([[maybe_unused]] void* fake_stack_save,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

// Copies frames between the run stack and a fiber's buffer. Not memcpy:
// under AddressSanitizer the frames hold poisoned redzones, which an
// intercepted or instrumented copy would report. On the 2-3 KiB a blocked
// rank saves it is as fast as glibc's memcpy (EXPERIMENTS.md).
void copy_frames(void* dst, const void* src, std::size_t n) {
  asm volatile("rep movsb" : "+D"(dst), "+S"(src), "+c"(n) : : "memory");
}

// Under AddressSanitizer, clears the shadow of run-stack bytes a fiber's
// frames just left: the next fiber's frames land on clean shadow, never on
// another rank's stale redzones. No-op in other builds.
void unpoison_frames([[maybe_unused]] const void* lo,
                     [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  __asan_unpoison_memory_region(lo, n);
#endif
}

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

}  // namespace

// ---------------------------------------------------------------------------
// RunStack
// ---------------------------------------------------------------------------

RunStack::RunStack(std::size_t bytes) {
  STGSIM_CHECK_GT(bytes, 0u) << "a run stack needs at least one byte";
  const std::size_t ps = page_size();
  void* base = MAP_FAILED;
  if (bytes <= std::numeric_limits<std::size_t>::max() - 2 * ps) {
    bytes_ = (bytes + ps - 1) / ps * ps;
    // Stacks grow down on x86-64: the guard page is the lowest page.
    base = mmap(nullptr, ps + bytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                0);
    if (base != MAP_FAILED && mprotect(base, ps, PROT_NONE) != 0) {
      munmap(base, ps + bytes_);
      base = MAP_FAILED;
    }
  }
  if (base == MAP_FAILED) {
    throw RunStackMapError("cannot map a fiber run stack of " +
                           std::to_string(bytes / 1024) +
                           " KiB (fiber_stack_kb)");
  }
  lo_ = static_cast<std::uint8_t*>(base) + ps;
}

RunStack::~RunStack() { munmap(lo_ - page_size(), page_size() + bytes_); }

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

Fiber::Fiber(BodyFn body, RunStack& stack)
    : body_(std::move(body)), stack_(stack) {
  STGSIM_CHECK(body_ != nullptr);
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  std::free(saved_);
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::set_save_hook(SaveHook hook) {
  g_save_hook.store(hook, std::memory_order_relaxed);
}

void Fiber::entry() noexcept { current()->run_body(); }

void Fiber::run_body() {
  finish_switch(nullptr, &caller_stack_bottom_, &caller_stack_size_);
  body_();
  finished_ = true;
  // Return to whoever resumed us last; the fiber is never resumed again
  // (a null save slot lets ASan free this fiber's fake stack).
  g_current_fiber = nullptr;
  start_switch(nullptr, caller_stack_bottom_, caller_stack_size_,
               tsan_caller_);
  stgsim_switch_stack(&sp_, caller_sp_);
  STGSIM_UNREACHABLE("finished fiber resumed");
}

void Fiber::resume() {
  STGSIM_CHECK(g_current_fiber == nullptr)
      << "resume() called from inside a fiber";
  STGSIM_CHECK(!finished_) << "resume() on finished fiber";
  if (sp_ != nullptr) {
    copy_frames(stack_.top() - saved_bytes_, saved_, saved_bytes_);
  } else {
    // The frame stgsim_switch_stack pops on first resume, from the lowest
    // address: the control words, r15 r14 r13 r12 rbx rbp (zero; a zero
    // rbp ends frame-pointer walks), the return address entry(), and
    // entry()'s own return address, null, so unwinders stop at the fiber
    // base. The stack top is page-aligned, so entry() starts with
    // rsp ≡ 8 (mod 16) as the ABI expects of a called function.
    std::uint64_t* frame = reinterpret_cast<std::uint64_t*>(stack_.top()) - 9;
    std::uint32_t mxcsr = 0;
    std::uint16_t fpu_cw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpu_cw));
    frame[0] = mxcsr | static_cast<std::uint64_t>(fpu_cw) << 32;
    for (int i = 1; i <= 6; ++i) frame[i] = 0;
    frame[7] = reinterpret_cast<std::uint64_t>(&Fiber::entry);
    frame[8] = 0;
    sp_ = frame;
  }
  g_current_fiber = this;
  void* fake_stack = nullptr;
#if defined(__SANITIZE_THREAD__)
  tsan_caller_ = __tsan_get_current_fiber();
#endif
  start_switch(&fake_stack, stack_.lo(), stack_.bytes(), tsan_fiber_);
  stgsim_switch_stack(&caller_sp_, sp_);
  finish_switch(fake_stack, nullptr, nullptr);
  STGSIM_CHECK(g_current_fiber == nullptr);
  save_frames();
}

void Fiber::save_frames() {
  const std::size_t live =
      static_cast<std::size_t>(stack_.top() - static_cast<std::uint8_t*>(sp_));
  if (finished_) {
    std::free(saved_);
    saved_ = nullptr;
    saved_bytes_ = saved_capacity_ = 0;
  } else {
    if (live > saved_capacity_) {
      std::free(saved_);
      saved_ = static_cast<std::uint8_t*>(std::malloc(live));
      saved_capacity_ = saved_ != nullptr ? live : 0;
    }
    if (saved_ == nullptr) {
      saved_bytes_ = 0;
      finished_ = true;
      unpoison_frames(sp_, live);
      throw std::bad_alloc();
    }
    copy_frames(saved_, sp_, live);
    saved_bytes_ = live;
    if (SaveHook hook = g_save_hook.load(std::memory_order_relaxed)) {
      hook(live);
    }
  }
  unpoison_frames(sp_, live);
}

void Fiber::yield_to_scheduler() {
  Fiber* self = g_current_fiber;
  STGSIM_CHECK(self != nullptr) << "yield outside of fiber";
  g_current_fiber = nullptr;
  start_switch(&self->fake_stack_, self->caller_stack_bottom_,
               self->caller_stack_size_, self->tsan_caller_);
  stgsim_switch_stack(&self->sp_, self->caller_sp_);
  // Resumed again, possibly from another thread's stack: record it, and
  // restore current pointer (resume() set it before the switch back).
  finish_switch(self->fake_stack_, &self->caller_stack_bottom_,
                &self->caller_stack_size_);
  g_current_fiber = self;
}

Fiber* Fiber::current() { return g_current_fiber; }

}  // namespace stgsim::simk
