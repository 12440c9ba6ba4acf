// Stackful fibers: what the virtual-time executor runs its processes on.
//
// A Fiber runs a function on a stack of its own, on the thread that calls
// resume(), until the function calls suspend() or returns; control then
// comes back out of resume(). A switch saves only what a function call
// preserves, so it costs tens of nanoseconds where handing control from
// one OS thread to another costs microseconds.
//
// This file hides what makes such a switch safe:
//   * the stack: mapped on the first resume(), as large as a new thread's
//     default, with an inaccessible guard page below it, and unmapped once
//     the function has returned;
//   * the switch: hand-written on x86-64 (callee-saved registers plus the
//     MXCSR and x87 control words), ucontext elsewhere;
//   * thread state that belongs to whichever side is running: the C++
//     runtime's record of exceptions being handled, and in sanitizer
//     builds which stack AddressSanitizer and ThreadSanitizer consider live.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

namespace ccf::simtime {

class Fiber {
 public:
  /// `entry` runs on the fiber's stack from the first resume() on. An
  /// exception escaping it terminates the program.
  explicit Fiber(std::function<void()> entry) : entry_(std::move(entry)) {}
  /// Unmaps the stack. A fiber that started and has not finished is not
  /// unwound: its owner must first resume it to completion.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it suspends or its function returns. Called from
  /// outside every fiber, on a fiber that has not finished.
  void resume();

  /// Returns control to the resume() that is running this fiber. Called
  /// only on the fiber itself.
  void suspend();

  /// True while the fiber has a stack: from the first resume() that mapped
  /// one until its function returns. A resume() that could not map the
  /// stack throws and leaves the fiber unstarted.
  bool started() const { return mapping_ != nullptr; }

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

  [[noreturn]] static void start() noexcept;
  void map_stack();
  void switch_to_resumer(bool final);
  void swap_exception_state();
  void release_stack() noexcept;

  std::function<void()> entry_;
  bool finished_ = false;
  void* mapping_ = nullptr;  ///< guard page + stack; null unless running or suspended
  std::size_t mapping_bytes_ = 0;
  /// Saved contexts of the fiber and of its resume() caller: a stack
  /// pointer on x86-64, else a ucontext_t at the top of the mapping.
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
