#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>

#include "support/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace stgsim::simk {

namespace {

thread_local Fiber* g_current_fiber = nullptr;
// Global (not thread_local): the threaded scheduler resumes fibers from
// persistent worker threads, and per-thread counters would silently drop
// every resume performed off the scheduler thread. A relaxed increment is
// noise next to the swapcontext it accompanies.
std::atomic<unsigned long long> g_switches{0};

// AddressSanitizer tracks one stack per thread. Every swapcontext below is
// announced to it, so a throw on a fiber stack (which unpoisons "the"
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

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t ps = page_size();
  return (bytes + ps - 1) / ps * ps;
}

}  // namespace

Fiber::Fiber(BodyFn body, std::size_t stack_bytes) : body_(std::move(body)) {
  STGSIM_CHECK(body_ != nullptr);
  const std::size_t usable = round_up_pages(stack_bytes);
  map_bytes_ = usable + page_size();  // + guard page
  stack_base_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  STGSIM_CHECK(stack_base_ != MAP_FAILED) << "fiber stack mmap failed";
  // Guard page at the low end (stacks grow down on x86-64).
  STGSIM_CHECK_EQ(mprotect(stack_base_, page_size(), PROT_NONE), 0);

  STGSIM_CHECK_EQ(getcontext(&context_), 0);
  context_.uc_stack.ss_sp =
      static_cast<std::uint8_t*>(stack_base_) + page_size();
  context_.uc_stack.ss_size = usable;
  context_.uc_link = nullptr;  // run_body never falls off the trampoline

  // makecontext only passes ints; split the pointer into two 32-bit halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // Fibers must not be destroyed while suspended mid-body with live RAII
  // state; the engine only destroys fibers after completion or when the
  // whole run is being torn down (where leaking fiber-local destructors
  // is acceptable for abnormal termination).
  if (stack_base_ != nullptr) {
    munmap(stack_base_, map_bytes_);
  }
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(bits)->run_body();
}

void Fiber::run_body() {
  finish_switch(nullptr, &caller_stack_bottom_, &caller_stack_size_);
  body_();
  finished_ = true;
  // Return to whoever resumed us last; the fiber is never resumed again
  // (a null save slot lets ASan free this fiber's fake stack).
  Fiber* self = g_current_fiber;
  g_current_fiber = nullptr;
  start_switch(nullptr, self->caller_stack_bottom_, self->caller_stack_size_,
               self->tsan_caller_);
  swapcontext(&self->context_, &self->return_context_);
  STGSIM_UNREACHABLE("finished fiber resumed");
}

void Fiber::resume() {
  STGSIM_CHECK(g_current_fiber == nullptr)
      << "resume() called from inside a fiber";
  STGSIM_CHECK(!finished_) << "resume() on finished fiber";
  started_ = true;
  g_current_fiber = this;
  g_switches.fetch_add(1, std::memory_order_relaxed);
  void* fake_stack = nullptr;
#if defined(__SANITIZE_THREAD__)
  tsan_caller_ = __tsan_get_current_fiber();
#endif
  start_switch(&fake_stack, context_.uc_stack.ss_sp, context_.uc_stack.ss_size,
               tsan_fiber_);
  STGSIM_CHECK_EQ(swapcontext(&return_context_, &context_), 0);
  finish_switch(fake_stack, nullptr, nullptr);
  STGSIM_CHECK(g_current_fiber == nullptr);
}

void Fiber::yield_to_scheduler() {
  Fiber* self = g_current_fiber;
  STGSIM_CHECK(self != nullptr) << "yield outside of fiber";
  g_current_fiber = nullptr;
  start_switch(&self->fake_stack_, self->caller_stack_bottom_,
               self->caller_stack_size_, self->tsan_caller_);
  STGSIM_CHECK_EQ(swapcontext(&self->context_, &self->return_context_), 0);
  // Resumed again, possibly from another thread's stack: record it, and
  // restore current pointer (resume() set it before the swap back into us).
  finish_switch(self->fake_stack_, &self->caller_stack_bottom_,
                &self->caller_stack_size_);
  g_current_fiber = self;
}

Fiber* Fiber::current() { return g_current_fiber; }

unsigned long long Fiber::switch_count() {
  return g_switches.load(std::memory_order_relaxed);
}

}  // namespace stgsim::simk
