#include "simtime/fiber.hpp"

#include <cxxabi.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "util/check.hpp"

// GCC announces sanitizers with __SANITIZE_*__, Clang through __has_feature.
#ifdef __has_feature
#define CCF_HAS_FEATURE(x) __has_feature(x)
#else
#define CCF_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || CCF_HAS_FEATURE(address_sanitizer)
#define CCF_FIBER_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) || CCF_HAS_FEATURE(thread_sanitizer)
#define CCF_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__) && defined(__ELF__)
#define CCF_FIBER_X86_64 1
#else
#include <ucontext.h>
#endif

#ifdef CCF_FIBER_X86_64
// ccf_fiber_switch(save, load) pushes the callee-saved registers and the
// MXCSR and x87 control words, stores the stack pointer to *save, then
// switches to the stack pointer `load` and pops the same frame from there.
// A new fiber's stack is seeded with such a frame whose return address is
// Fiber::start (see Fiber::map_stack). Returning to an address the call
// did not push rules out hardware shadow stacks (CET), which Linux leaves
// off unless a process opts in.
extern "C" void ccf_fiber_switch(void** save, void* load);
asm(R"(
  .pushsection .text
  .globl ccf_fiber_switch
  .hidden ccf_fiber_switch
  .type ccf_fiber_switch, @function
  .p2align 4
ccf_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw 12(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw 12(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size ccf_fiber_switch, .-ccf_fiber_switch
  .popsection
)");
#endif

namespace ccf::simtime {

namespace {

/// The fiber whose first resume() is in progress; Fiber::start takes it.
thread_local Fiber* t_starting = nullptr;

std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

/// The stack a new thread gets by default: RLIMIT_STACK, or the platform
/// default when that is unlimited.
std::size_t default_stack_bytes() {
  static const std::size_t bytes = [] {
    pthread_attr_t attr;
    std::size_t size = 0;
    CCF_CHECK(::pthread_attr_init(&attr) == 0, "pthread_attr_init failed");
    ::pthread_attr_getstacksize(&attr, &size);
    ::pthread_attr_destroy(&attr);
    const std::size_t page = page_bytes();
    return (size + page - 1) / page * page;
  }();
  return bytes;
}

/// Saves the running context into `from` and continues `to`.
void jump(void*& from, void* to) {
#ifdef CCF_FIBER_X86_64
  ccf_fiber_switch(&from, to);
#else
  ::swapcontext(static_cast<ucontext_t*>(from), static_cast<ucontext_t*>(to));
#endif
}

}  // namespace

Fiber::~Fiber() { release_stack(); }

void Fiber::map_stack() {
  const std::size_t page = page_bytes();
  const std::size_t stack_bytes = default_stack_bytes();
  // Pages are committed as the fiber touches them, as for a thread stack.
  void* base = ::mmap(nullptr, page + stack_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  CCF_CHECK(base != MAP_FAILED, "fiber stack mmap failed: " << std::strerror(errno));
  mapping_ = base;
  mapping_bytes_ = page + stack_bytes;
  CCF_CHECK(::mprotect(base, page, PROT_NONE) == 0,
            "fiber guard page mprotect failed: " << std::strerror(errno));
  char* bottom = static_cast<char*>(base) + page;
  char* top = bottom + stack_bytes;
#ifdef CCF_FIBER_X86_64
  // The frame ccf_fiber_switch pops, upward from the saved stack pointer:
  // padding, MXCSR, x87 control word, r15, r14, r13, r12, rbx, rbp, and
  // the address it returns to. Above it sits a null return address for
  // start(), which ends every unwind and backtrace there; start() is thus
  // entered with the stack aligned as for a call.
  auto** slot = reinterpret_cast<void**>(top);
  *--slot = nullptr;
  *--slot = reinterpret_cast<void*>(&Fiber::start);
  for (int reg = 0; reg < 6; ++reg) *--slot = nullptr;
  slot -= 2;
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_control = 0;
  __asm__ __volatile__("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_control));
  std::memcpy(reinterpret_cast<char*>(slot) + 8, &mxcsr, sizeof mxcsr);
  std::memcpy(reinterpret_cast<char*>(slot) + 12, &x87_control, sizeof x87_control);
  context_ = slot;
#else
  // Both saved contexts live at the top of the mapping, above the stack.
  auto address = reinterpret_cast<std::uintptr_t>(top) - 2 * sizeof(ucontext_t);
  address -= address % alignof(ucontext_t);
  auto* contexts = reinterpret_cast<ucontext_t*>(address);
  auto* fiber = new (&contexts[0]) ucontext_t{};
  resumer_context_ = new (&contexts[1]) ucontext_t{};
  CCF_CHECK(::getcontext(fiber) == 0, "getcontext failed");
  fiber->uc_stack.ss_sp = bottom;
  fiber->uc_stack.ss_size = address - reinterpret_cast<std::uintptr_t>(bottom);
  fiber->uc_link = nullptr;
  ::makecontext(fiber, &Fiber::start, 0);
  context_ = fiber;
#endif
#ifdef CCF_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::resume() {
  if (mapping_ == nullptr) {
    map_stack();
    t_starting = this;
  }
  swap_exception_state();
#ifdef CCF_FIBER_ASAN
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack,
                                 static_cast<char*>(mapping_) + page_bytes(),
                                 mapping_bytes_ - page_bytes());
#endif
#ifdef CCF_FIBER_TSAN
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  jump(resumer_context_, context_);
#ifdef CCF_FIBER_ASAN
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
  swap_exception_state();
  if (finished_) release_stack();
}

void Fiber::suspend() { switch_to_resumer(false); }

void Fiber::start() noexcept {
  Fiber* self = t_starting;
#ifdef CCF_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &self->resumer_stack_bottom_,
                                  &self->resumer_stack_bytes_);
#endif
  self->entry_();
  self->finished_ = true;
  self->switch_to_resumer(true);
  __builtin_unreachable();
}

void Fiber::switch_to_resumer(bool final) {
#ifdef CCF_FIBER_ASAN
  // A final switch passes no fake-stack slot, which frees the fiber's.
  __sanitizer_start_switch_fiber(final ? nullptr : &asan_fake_stack_, resumer_stack_bottom_,
                                 resumer_stack_bytes_);
#else
  (void)final;
#endif
#ifdef CCF_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  jump(context_, resumer_context_);
#ifdef CCF_FIBER_ASAN
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &resumer_stack_bottom_,
                                  &resumer_stack_bytes_);
#endif
}

// The C++ runtime keeps one record of exceptions per thread, and every
// fiber shares the thread. Without this exchange a fiber that suspends
// inside a catch handler would hand its exception to the next one to run,
// whose `throw;` would rethrow it. resume() calls this on both edges, so
// the side that is not running always keeps its own record here.
void Fiber::swap_exception_state() {
  void* live = abi::__cxa_get_globals();
  ExceptionState running;
  std::memcpy(&running, live, sizeof running);
  std::memcpy(live, &idle_exceptions_, sizeof idle_exceptions_);
  idle_exceptions_ = running;
}

void Fiber::release_stack() noexcept {
  if (mapping_ == nullptr) return;
#ifdef CCF_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
#endif
#ifdef CCF_FIBER_ASAN
  // Frames that died on this stack stay poisoned in ASan's shadow memory,
  // and a later mapping at the same address would inherit the poison.
  ASAN_UNPOISON_MEMORY_REGION(mapping_, mapping_bytes_);
#endif
  ::munmap(mapping_, mapping_bytes_);
  mapping_ = nullptr;
}

}  // namespace ccf::simtime
