// Stackful fibers: what the virtual-time executor runs its processes on.
//
// A Fiber runs a function on a stack of its own, on the thread that calls
// start() or resume(), until the function calls suspend() or returns;
// control then comes back out of that call. A switch saves only what a
// function call preserves, so it costs tens of nanoseconds where handing
// control from one OS thread to another costs microseconds.
//
// This file hides what makes such a switch safe:
//   * the stack: as large as a new thread's default, taken from one
//     process-wide pool on start() and given back once the function has
//     returned or the fiber is destroyed. The pool carves its stacks from
//     shared reservations and never unmaps one, so the next fiber, in this
//     run or a later one, gets a stack whose top pages are already faulted
//     in. It holds at most as many stacks as were ever in use at once and
//     keeps them until the process exits. Each run decides once, in
//     plan_stacks(), how the stacks it lacks detect overflow: with an
//     inaccessible guard page below each (two map entries per stack) when
//     the kernel's map-entry budget (vm.max_map_count) holds them, else
//     with a canary word at each stack's bottom, checked whenever the
//     fiber switches back; a fiber found to have overwritten it aborts the
//     program;
//   * the switch: hand-written on x86-64 (callee-saved registers plus the
//     MXCSR and x87 control words), ucontext elsewhere;
//   * thread state that belongs to whichever side is running: the C++
//     runtime's record of exceptions being handled, and in sanitizer
//     builds which stack AddressSanitizer and ThreadSanitizer consider live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace ccf::simtime {

/// How the stacks of a run's fibers detect an overflow.
enum class StackProtection : std::uint8_t {
  GuardPage,  ///< an inaccessible page below the stack: an overflow faults
  Canary,     ///< a word at the stack's bottom, checked on every switch back
};

class Fiber {
 public:
  /// `entry` runs on the fiber's stack from start() on. An exception
  /// escaping it terminates the program. `id` names the fiber in the
  /// diagnosis of a stack overflow.
  Fiber(std::function<void()> entry, long id) : entry_(std::move(entry)), id_(id) {}
  /// Returns the stack to the pool. A fiber that started and has not
  /// finished is not unwound: its owner must first resume it to completion.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Decides, before a run starts `fibers` fibers, how the stacks the pool
  /// must add for them are protected. Guarded free stacks that cover the
  /// run answer GuardPage, and free stacks of either kind that cover it
  /// answer Canary; both without a system call. Otherwise the answer is
  /// GuardPage if vm.max_map_count, less the map entries in use, holds two
  /// per stack to add, else Canary.
  static StackProtection plan_stacks(std::size_t fibers);

  /// Takes a stack from the pool, protected as `protection` says (a guard
  /// page run gets only guard-paged stacks; a canary run takes either
  /// kind), and runs the fiber until it suspends or its function returns.
  /// Called from outside every fiber, once. Throws, leaving the fiber
  /// unstarted, if no stack can be had.
  void start(StackProtection protection);

  /// Runs a started fiber until it suspends or its function returns.
  /// Called from outside every fiber, on a fiber that has not finished.
  void resume();

  /// Returns control to the start() or resume() that is running this
  /// fiber. Called only on the fiber itself.
  void suspend();

  /// True while the fiber has a stack: from start() until its function
  /// returns.
  bool started() const { return slot_ != nullptr; }

 private:
  /// Mirrors the Itanium C++ ABI's per-thread __cxa_eh_globals: the stack
  /// of exceptions being handled and the count of those in flight.
  struct ExceptionState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
#ifdef __ARM_EABI_UNWINDER__
    void* propagating = nullptr;
#endif
  };

  [[noreturn]] static void start_entry() noexcept;
  void seed_stack();
  void switch_to_resumer(bool final);
  void swap_exception_state();
  [[noreturn]] void abort_on_overflow() const;
  void release_stack() noexcept;

  std::function<void()> entry_;
  long id_;
  /// The pool slot holding the stack: a page below the stack (the guard
  /// page, or untouched space under a canary) and the stack itself. Null
  /// unless running or suspended.
  char* slot_ = nullptr;
  bool canary_ = false;  ///< the stack's bottom word is a canary to check
  bool finished_ = false;
  /// Saved contexts of the fiber and of its resumer: a stack pointer on
  /// x86-64, else a ucontext_t at the top of the stack.
  void* context_ = nullptr;
  void* resumer_context_ = nullptr;
  ExceptionState idle_exceptions_;  ///< the side not running keeps its own here
  // Sanitizer bookkeeping; unused in uninstrumented builds.
  void* asan_fake_stack_ = nullptr;
  const void* resumer_stack_bottom_ = nullptr;
  std::size_t resumer_stack_bytes_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
};

}  // namespace ccf::simtime
