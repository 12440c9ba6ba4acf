#include "simtime/fiber.hpp"

#include <cxxabi.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

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
// Fiber::start_entry (see Fiber::seed_stack). Returning to an address the
// call did not push rules out hardware shadow stacks (CET), which Linux
// leaves off unless a process opts in.
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

/// The fiber whose start() is in progress; Fiber::start_entry takes it.
thread_local Fiber* t_starting = nullptr;

/// The word at the bottom of a canary stack. A fiber that runs past the
/// bottom overwrites it before it reaches the stack below.
constexpr std::uint64_t kCanary = 0x5eed'f1be'57ac'ca4eull;

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

/// A stack's slot in the pool: one page below the stack (its guard page,
/// or under a canary a gap nothing touches), then the stack.
std::size_t slot_bytes() { return page_bytes() + default_stack_bytes(); }

/// Map entries this process may still create: vm.max_map_count less the
/// lines of /proc/self/maps (one too many where [vsyscall] is listed), and
/// never below zero. Negative when either cannot be read.
long free_map_entries() {
  long limit = -1;
  std::ifstream("/proc/sys/vm/max_map_count") >> limit;
  std::ifstream maps("/proc/self/maps");
  if (limit < 0 || !maps) return -1;
  const long entries = std::count(std::istreambuf_iterator<char>(maps),
                                  std::istreambuf_iterator<char>(), '\n');
  return std::max(0L, limit - entries);
}

/// Every fiber stack in the process. Slots are carved in address order
/// from reservations of kSlotsPerReservation, and a carved slot stays a
/// stack for good: it returns to a free list, never to the system. The
/// pool thus holds at most as many stacks as were ever in use at once.
class StackPool {
 public:
  struct Stack {
    char* slot;
    bool canary;
  };

  static StackPool& instance() {
    // Never destroyed: a static Fiber may outlive any static pool.
    static StackPool* const pool = new StackPool;
    return *pool;
  }

  StackProtection plan(std::size_t fibers) {
    std::size_t guarded = 0;
    std::size_t free = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Fibers then take free stacks from the highest address down, as
      // they would get fresh mappings: fibers that start one after the
      // other get neighbouring stacks, whatever order the last run gave
      // them back in.
      std::sort(guarded_.begin(), guarded_.end(), std::less<char*>());
      std::sort(canaried_.begin(), canaried_.end(), std::less<char*>());
      guarded = guarded_.size();
      free = guarded + canaried_.size();
    }
    if (guarded >= fibers) return StackProtection::GuardPage;
    if (free >= fibers) return StackProtection::Canary;
    // Each stack a guard page run adds costs two map entries: the stack
    // and the guard page split off below it.
    const long budget = free_map_entries();
    const bool guards_fit = budget < 0 || static_cast<std::size_t>(budget) / 2 >= fibers - guarded;
    return guards_fit ? StackProtection::GuardPage : StackProtection::Canary;
  }

  Stack take(StackProtection protection) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!guarded_.empty()) return {pop(guarded_), false};
    if (protection == StackProtection::Canary) {
      if (!canaried_.empty()) return {pop(canaried_), true};
      char* slot = fresh_slot();
      std::memcpy(slot + page_bytes(), &kCanary, sizeof kCanary);
      carve();
      return {slot, true};
    }
    // A guard page run protects a free canary stack, or else a fresh slot.
    const bool reuse = !canaried_.empty();
    char* slot = reuse ? canaried_.back() : fresh_slot();
    CCF_CHECK(::mprotect(slot, page_bytes(), PROT_NONE) == 0,
              "fiber guard page mprotect failed: " << std::strerror(errno));
    if (reuse) {
      canaried_.pop_back();
    } else {
      carve();
    }
    return {slot, false};
  }

  void give(Stack stack) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    (stack.canary ? canaried_ : guarded_).push_back(stack.slot);  // capacity reserved by carve()
  }

 private:
  /// Few map calls for wide runs, little address space held back by
  /// narrow ones.
  static constexpr std::size_t kSlotsPerReservation = 16;

  static char* pop(std::vector<char*>& list) {
    char* slot = list.back();
    list.pop_back();
    return slot;
  }

  /// The next slot not yet carved, mapping a new reservation if none is.
  char* fresh_slot() {
    if (next_ == end_) {
      const std::size_t bytes = kSlotsPerReservation * slot_bytes();
      // Pages are committed as fibers touch them, as for a thread stack.
      void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
      CCF_CHECK(base != MAP_FAILED, "fiber stack mmap failed: " << std::strerror(errno));
      next_ = static_cast<char*>(base);
      end_ = next_ + bytes;
    }
    return next_;
  }

  /// Makes fresh_slot() a stack. Each free list can then take back every
  /// stack without allocating, so give() cannot fail.
  void carve() {
    const std::size_t stacks = stacks_ + 1;
    if (guarded_.capacity() < stacks) guarded_.reserve(2 * stacks);
    if (canaried_.capacity() < stacks) canaried_.reserve(2 * stacks);
    stacks_ = stacks;
    next_ += slot_bytes();
  }

  std::mutex mutex_;
  std::vector<char*> guarded_;   ///< free guard-paged stacks, by slot
  std::vector<char*> canaried_;  ///< free canary stacks, by slot
  char* next_ = nullptr;         ///< the reservation's slots not yet carved
  char* end_ = nullptr;
  std::size_t stacks_ = 0;
};

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

StackProtection Fiber::plan_stacks(std::size_t fibers) {
  return StackPool::instance().plan(fibers);
}

void Fiber::start(StackProtection protection) {
  const StackPool::Stack stack = StackPool::instance().take(protection);
  slot_ = stack.slot;
  canary_ = stack.canary;
  seed_stack();
  t_starting = this;
  resume();
}

void Fiber::seed_stack() {
  char* bottom = slot_ + page_bytes();
  char* top = bottom + default_stack_bytes();
#ifdef CCF_FIBER_X86_64
  // The frame ccf_fiber_switch pops, upward from the saved stack pointer:
  // padding, MXCSR, x87 control word, r15, r14, r13, r12, rbx, rbp, and
  // the address it returns to. Above it sits a null return address for
  // start_entry(), which ends every unwind and backtrace there;
  // start_entry() is thus entered with the stack aligned as for a call.
  auto** slot = reinterpret_cast<void**>(top);
  *--slot = nullptr;
  *--slot = reinterpret_cast<void*>(&Fiber::start_entry);
  for (int reg = 0; reg < 6; ++reg) *--slot = nullptr;
  slot -= 2;
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_control = 0;
  __asm__ __volatile__("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_control));
  std::memcpy(reinterpret_cast<char*>(slot) + 8, &mxcsr, sizeof mxcsr);
  std::memcpy(reinterpret_cast<char*>(slot) + 12, &x87_control, sizeof x87_control);
  context_ = slot;
#else
  // Both saved contexts live at the top of the stack.
  auto address = reinterpret_cast<std::uintptr_t>(top) - 2 * sizeof(ucontext_t);
  address -= address % alignof(ucontext_t);
  auto* contexts = reinterpret_cast<ucontext_t*>(address);
  auto* fiber = new (&contexts[0]) ucontext_t{};
  resumer_context_ = new (&contexts[1]) ucontext_t{};
  CCF_CHECK(::getcontext(fiber) == 0, "getcontext failed");
  fiber->uc_stack.ss_sp = bottom;
  fiber->uc_stack.ss_size = address - reinterpret_cast<std::uintptr_t>(bottom);
  fiber->uc_link = nullptr;
  ::makecontext(fiber, &Fiber::start_entry, 0);
  context_ = fiber;
#endif
#ifdef CCF_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::resume() {
  swap_exception_state();
#ifdef CCF_FIBER_ASAN
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, slot_ + page_bytes(),
                                 default_stack_bytes());
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
  if (canary_) {
    std::uint64_t bottom_word = 0;
    std::memcpy(&bottom_word, slot_ + page_bytes(), sizeof bottom_word);
    if (bottom_word != kCanary) abort_on_overflow();
  }
  if (finished_) release_stack();
}

void Fiber::suspend() { switch_to_resumer(false); }

void Fiber::start_entry() noexcept {
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

void Fiber::abort_on_overflow() const {
  // The fiber wrote past its stack, possibly into the frames of the stack
  // below; unwinding would resume that neighbour, so nothing may run on.
  std::fprintf(stderr,
               "fiber stack overflow: process %ld ran past the bottom of its %zu-byte stack "
               "(canary overwritten)\n",
               id_, default_stack_bytes());
  std::abort();
}

void Fiber::release_stack() noexcept {
  if (slot_ == nullptr) return;
#ifdef CCF_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
#endif
#ifdef CCF_FIBER_ASAN
  // Frames that died on this stack stay poisoned in ASan's shadow memory,
  // and the next fiber to take the stack would inherit the poison.
  ASAN_UNPOISON_MEMORY_REGION(slot_, slot_bytes());
#endif
  StackPool::instance().give({slot_, canary_});
  slot_ = nullptr;
}

}  // namespace ccf::simtime
