#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>

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
// nothing here enters the kernel. A fresh stack holds the frame Fiber's
// constructor writes: zeroed registers, the creator's control words, and
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

// AddressSanitizer tracks one stack per thread. Every stack switch below
// is announced to it, so a throw on a fiber stack (which unpoisons "the"
// stack in __asan_handle_no_return) sees the right bounds instead of
// reporting the scheduler's frames as stack-use-after-scope, and
// detect_stack_use_after_return's fake frames follow the fiber.
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

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

}  // namespace

// ---------------------------------------------------------------------------
// StackPool
// ---------------------------------------------------------------------------

StackPool::StackPool(std::size_t stack_bytes, std::size_t expected_stacks)
    : stack_bytes_((stack_bytes + page_size() - 1) / page_size() * page_size()),
      slab_stacks_(std::clamp<std::size_t>(expected_stacks, 1, kSlabStacks)) {
  STGSIM_CHECK_GT(stack_bytes_, 0u);
}

StackPool::~StackPool() {
  for (const Slab& s : slabs_) munmap(s.base, s.bytes);
}

void* StackPool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    // Stacks grow down on x86-64: each stack's guard page sits at the low
    // end of its stride, between it and the stack below.
    const std::size_t stride = page_size() + stack_bytes_;
    const std::size_t bytes = stride * slab_stacks_;
    void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    STGSIM_CHECK(base != MAP_FAILED) << "fiber stack slab mmap failed";
    slabs_.push_back({base, bytes});
    for (std::size_t i = slab_stacks_; i-- > 0;) {
      auto* guard = static_cast<std::uint8_t*>(base) + i * stride;
      STGSIM_CHECK_EQ(mprotect(guard, page_size(), PROT_NONE), 0);
      free_.push_back(guard + page_size());
    }
  }
  void* lo = free_.back();
  free_.pop_back();
  return lo;
}

void StackPool::release(void* stack_lo) {
#if defined(__SANITIZE_ADDRESS__)
  // A fiber destroyed while suspended leaves its frames' redzones
  // poisoned; the next fiber on this stack starts clean.
  __asan_unpoison_memory_region(stack_lo, stack_bytes_);
#endif
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(stack_lo);
}

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

Fiber::Fiber(BodyFn body, StackPool& stacks)
    : body_(std::move(body)), stacks_(stacks) {
  STGSIM_CHECK(body_ != nullptr);
  stack_lo_ = stacks.acquire();
  // The frame stgsim_switch_stack pops on first resume, from the lowest
  // address: the control words, r15 r14 r13 r12 rbx rbp (zero; a zero rbp
  // ends frame-pointer walks), the return address entry(), and entry()'s
  // own return address, null, so unwinders stop at the fiber base. The
  // stack top is page-aligned, so entry() starts with rsp ≡ 8 (mod 16) as
  // the ABI expects of a called function.
  auto* top = reinterpret_cast<std::uint64_t*>(
      static_cast<std::uint8_t*>(stack_lo_) + stacks.stack_bytes());
  std::uint64_t* frame = top - 9;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  frame[0] = mxcsr | static_cast<std::uint64_t>(fpu_cw) << 32;
  for (int i = 1; i <= 6; ++i) frame[i] = 0;
  frame[7] = reinterpret_cast<std::uint64_t>(&Fiber::entry);
  frame[8] = 0;
  sp_ = frame;
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // Fibers must not be destroyed while suspended mid-body with live RAII
  // state; the engine only destroys fibers after completion or when the
  // whole run is being torn down (where leaking fiber-local destructors
  // is acceptable for abnormal termination).
  stacks_.release(stack_lo_);
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
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
  g_current_fiber = this;
  void* fake_stack = nullptr;
#if defined(__SANITIZE_THREAD__)
  tsan_caller_ = __tsan_get_current_fiber();
#endif
  start_switch(&fake_stack, stack_lo_, stacks_.stack_bytes(), tsan_fiber_);
  stgsim_switch_stack(&caller_sp_, sp_);
  finish_switch(fake_stack, nullptr, nullptr);
  STGSIM_CHECK(g_current_fiber == nullptr);
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
