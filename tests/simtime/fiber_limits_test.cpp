// Fiber stacks at the process's limits. A run the kernel's map-entry
// budget cannot give two entries (stack and guard page) per new stack runs
// on canary stacks instead; a canary a body overwrites aborts the program
// with a diagnosis. A stack that cannot be had at all fails the run with
// an error, not a crash: run() throws, every body that got a stack is
// unwound, and no body starts during the abort.
//
// Each scenario runs in a forked child, because it exhausts a per-process
// resource (the kernel's map-entry limit, or the address space) or kills
// the process, and reports through its exit code. The parent runs no
// cluster, so each child starts with an empty stack pool.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "runtime/virtual_time_cluster.hpp"

// GCC announces sanitizers with __SANITIZE_*__, Clang through __has_feature.
#ifdef __has_feature
#define CCF_HAS_FEATURE(x) __has_feature(x)
#else
#define CCF_HAS_FEATURE(x) 0
#endif

namespace ccf::runtime {
namespace {

/// AddressSanitizer and ThreadSanitizer map shadow memory for the mappings
/// a program makes, out of the same map-entry budget: at the kernel's
/// limit their runtime fails first ("Failed to mmap"), not the fiber.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    CCF_HAS_FEATURE(address_sanitizer) || CCF_HAS_FEATURE(thread_sanitizer)
constexpr bool kSanitizerShadowUsesMapEntries = true;
#else
constexpr bool kSanitizerShadowUsesMapEntries = false;
#endif

// Child exit codes.
constexpr int kOk = 0;
constexpr int kRunDidNotThrow = 10;
constexpr int kWrongError = 11;
constexpr int kBodiesNotUnwound = 12;
constexpr int kStartedDuringAbort = 13;
constexpr int kWrongStartCount = 14;
constexpr int kSetupFailed = 15;

/// Bodies log +id when they start and -id when their locals are destroyed;
/// the log is reserved up front so that the run itself allocates nothing.
struct BodyLog {
  std::vector<int> events;
  int started() const {
    int n = 0;
    for (int e : events) n += e > 0 ? 1 : 0;
    return n;
  }
  int ended() const { return static_cast<int>(events.size()) - started(); }
  /// True when some body started after another one's locals were
  /// destroyed, i.e. during the abort.
  bool started_during_abort() const {
    bool any_ended = false;
    for (int e : events) {
      if (e < 0) any_ended = true;
      if (e > 0 && any_ended) return true;
    }
    return false;
  }
};

struct LoggedLocal {
  LoggedLocal(BodyLog& l, int i) : log(l), id(i) { log.events.push_back(id); }
  ~LoggedLocal() { log.events.push_back(-id); }
  LoggedLocal(const LoggedLocal&) = delete;
  LoggedLocal& operator=(const LoggedLocal&) = delete;
  BodyLog& log;
  int id;
};

/// `procs` processes that each hold a logged local and compute twice.
void add_bodies(VirtualTimeCluster& cluster, BodyLog& log, int procs) {
  log.events.reserve(2 * static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    cluster.add_process(p, [&log, p](ProcessContext& ctx) {
      LoggedLocal local(log, p + 1);
      ctx.compute(1.0);
      ctx.compute(1.0);
    });
  }
}

/// Runs the cluster, expecting it to throw an error naming `failed_call`,
/// and checks the bodies' log. Returns a child exit code.
int expect_clean_failure(VirtualTimeCluster& cluster, const BodyLog& log,
                         const std::string& failed_call, int expected_starts) {
  try {
    cluster.run();
    return kRunDidNotThrow;
  } catch (const std::exception& e) {
    if (std::string(e.what()).find(failed_call) == std::string::npos) return kWrongError;
  }
  if (log.started_during_abort()) return kStartedDuringAbort;
  if (log.started() != log.ended()) return kBodiesNotUnwound;
  if (expected_starts >= 0 && log.started() != expected_starts) return kWrongStartCount;
  if (log.started() < 1) return kWrongStartCount;
  return kOk;
}

/// Runs `scenario` in a forked child and returns its wait status; the
/// child's stderr goes to `err` if given. A child that hangs is killed by
/// SIGALRM after a minute.
int run_in_child(const std::function<int()>& scenario, std::string* err = nullptr) {
  int pipe_fds[2] = {-1, -1};
  if (err != nullptr && ::pipe(pipe_fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::alarm(60);
    if (err != nullptr) {
      ::close(pipe_fds[0]);
      ::dup2(pipe_fds[1], STDERR_FILENO);
    }
    ::_exit(scenario());
  }
  if (err != nullptr) {
    ::close(pipe_fds[1]);
    char buffer[4096];
    ssize_t n = 0;
    while ((n = ::read(pipe_fds[0], buffer, sizeof buffer)) > 0) {
      err->append(buffer, static_cast<std::size_t>(n));
    }
    ::close(pipe_fds[0]);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

std::string describe(int status) {
  if (WIFSIGNALED(status)) return "child killed by signal " + std::to_string(WTERMSIG(status));
  return "child exited with code " + std::to_string(WEXITSTATUS(status));
}

/// Map entries this process holds now: the lines of /proc/self/maps,
/// less the [vsyscall] gate area, which the kernel lists but does not
/// count against vm.max_map_count.
long map_entries() {
  std::ifstream maps("/proc/self/maps");
  long n = 0;
  std::string line;
  while (std::getline(maps, line)) {
    if (line.find("[vsyscall]") == std::string::npos) ++n;
  }
  return n;
}

long max_map_count() {
  std::ifstream in("/proc/sys/vm/max_map_count");
  long n = -1;
  in >> n;
  return n;
}

/// Holds this process at an exact number of map entries. A PROT_NONE
/// reservation is one entry; each step flips the protection of its tail
/// from the next page on, which splits one more entry off (or, undone,
/// merges it back).
class MapTableFiller {
 public:
  bool fill_to(long target) {
    const auto pages = static_cast<std::size_t>(target) + 8;
    void* base = ::mmap(nullptr, pages * page_, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) return false;
    base_ = static_cast<char*>(base);
    pages_ = pages;
    // Measuring can itself map memory (an allocator growing), so settle
    // until two readings in a row agree with the target.
    for (int round = 0; round < 16; ++round) {
      const long diff = target - map_entries();
      if (diff == 0 && map_entries() == target) return true;
      for (long i = 0; i < diff; ++i) {
        if (!step(+1)) return false;
      }
      for (long i = 0; i > diff; --i) {
        if (!step(-1)) return false;
      }
    }
    return false;
  }

 private:
  bool step(int dir) {
    if (dir < 0) {
      if (split_ == 0) return false;
      tail_read_ = !tail_read_;  // back to the previous tail's protection
      const bool ok = flip_tail_from(split_);
      --split_;
      return ok;
    }
    if (split_ + 1 >= pages_) return false;
    ++split_;
    tail_read_ = !tail_read_;
    return flip_tail_from(split_);
  }

  bool flip_tail_from(std::size_t page) {
    return ::mprotect(base_ + page * page_, (pages_ - page) * page_,
                      tail_read_ ? PROT_READ : PROT_NONE) == 0;
  }

  std::size_t page_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  char* base_ = nullptr;
  std::size_t pages_ = 0;
  std::size_t split_ = 0;   ///< pages [split_, pages_) form the tail
  bool tail_read_ = false;  ///< the tail's protection: PROT_READ or PROT_NONE
};

std::size_t thread_stack_bytes() {
  pthread_attr_t attr;
  std::size_t size = 0;
  ::pthread_attr_init(&attr);
  ::pthread_attr_getstacksize(&attr, &size);
  ::pthread_attr_destroy(&attr);
  return size;
}

/// Virtual address space in use, from /proc/self/status (VmSize, KiB).
long address_space_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      long kib = 0;
      status >> kib;
      return kib * 1024;
    }
  }
  return -1;
}

/// Why this process cannot fill a map table of `limit` entries, or null.
const char* map_table_unfillable(long limit) {
  if (kSanitizerShadowUsesMapEntries) {
    return "the sanitizer runtime competes for map entries at the limit";
  }
  if (limit > (1L << 22)) return "vm.max_map_count is too large to fill";
  return nullptr;
}

TEST(FiberLimits, FullMapTableFailsTheRunInsteadOfCrashing) {
  // A first run leaves four guard-paged stacks in the pool, and with them
  // a reservation carved only in part. With no map entry left, the second
  // run takes those stacks, then the reservation's remaining slots as
  // canary stacks, and the next reservation's mmap fails. A reservation
  // holds far fewer slots than the 40 bodies here.
  const long limit = max_map_count();
  ASSERT_GT(limit, 0) << "cannot read /proc/sys/vm/max_map_count";
  if (const char* why = map_table_unfillable(limit)) GTEST_SKIP() << why;
  const int status = run_in_child([limit] {
    {
      VirtualTimeCluster warm;
      BodyLog log;
      add_bodies(warm, log, 4);
      warm.run();
    }
    VirtualTimeCluster cluster;
    BodyLog log;
    add_bodies(cluster, log, 40);
    MapTableFiller filler;
    if (!filler.fill_to(limit)) return kSetupFailed;
    return expect_clean_failure(cluster, log, "fiber stack mmap failed", -1);
  });
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kOk) << describe(status);
}

TEST(FiberLimits, TooFewMapEntriesForGuardPagesRunOnCanaryStacks) {
  // Eight guard-paged stacks would take sixteen map entries and only nine
  // are free, so the run puts a canary under each stack instead: one
  // reservation, one entry, and every body runs to its end.
  const long limit = max_map_count();
  ASSERT_GT(limit, 0) << "cannot read /proc/sys/vm/max_map_count";
  if (const char* why = map_table_unfillable(limit)) GTEST_SKIP() << why;
  const int status = run_in_child([limit] {
    VirtualTimeCluster cluster;
    BodyLog log;
    add_bodies(cluster, log, 8);
    MapTableFiller filler;
    if (!filler.fill_to(limit - 9)) return kSetupFailed;
    try {
      cluster.run();
    } catch (const std::exception&) {
      return kWrongError;
    }
    if (log.started() != 8) return kWrongStartCount;
    if (log.ended() != 8) return kBodiesNotUnwound;
    return kOk;
  });
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kOk) << describe(status);
}

/// Writes every byte of the `bytes` below this call's frame, top down, as
/// a runaway recursion would, so no word on the way is skipped. The
/// writes start 512 bytes down, clear of this frame and the x86-64 red
/// zone, and the loop calls nothing.
[[gnu::noinline]] void overrun_stack(std::size_t bytes) {
  const auto start = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) - 512;
  for (std::size_t i = 0; i < bytes; ++i) *reinterpret_cast<volatile char*>(start - i) = 0x5a;
}

TEST(FiberLimits, OverrunCanaryStackAbortsNamingTheProcess) {
  // Two processes on canary stacks; process 1, whose stack lies above
  // process 0's in the reservation, writes a stack's length down from
  // its frame: past its canary into the untouched page below, and from
  // there at most into process 0's stack. Its next switch back finds the
  // canary overwritten, and the program aborts rather than unwind.
  const long limit = max_map_count();
  ASSERT_GT(limit, 0) << "cannot read /proc/sys/vm/max_map_count";
  if (const char* why = map_table_unfillable(limit)) GTEST_SKIP() << why;
  std::string diagnosis;
  const int status = run_in_child(
      [limit] {
        const rlimit no_core{0, 0};
        ::setrlimit(RLIMIT_CORE, &no_core);
        VirtualTimeCluster cluster;
        cluster.add_process(0, [](ProcessContext& ctx) { ctx.compute(1.0); });
        cluster.add_process(1, [](ProcessContext& ctx) {
          overrun_stack(thread_stack_bytes());
          ctx.compute(1.0);
        });
        MapTableFiller filler;
        if (!filler.fill_to(limit - 3)) return kSetupFailed;
        try {
          cluster.run();
        } catch (const std::exception&) {
          return kWrongError;
        }
        return kOk;
      },
      &diagnosis);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
      << describe(status) << "; stderr: " << diagnosis;
  EXPECT_NE(diagnosis.find("fiber stack overflow: process 1 "), std::string::npos) << diagnosis;
}

TEST(FiberLimits, StackMapFailureUnwindsExactlyTheMappedBodies) {
  // An address-space limit with room for about 20 stacks: the first
  // stack mapping past it fails, and only the bodies that already had a
  // stack may run, each to its unwinding.
  const int status = run_in_child([] {
    VirtualTimeCluster cluster;
    BodyLog log;
    add_bodies(cluster, log, 40);
    const auto page = static_cast<long>(::sysconf(_SC_PAGESIZE));
    const long stack = static_cast<long>(thread_stack_bytes()) + page;
    const long in_use = address_space_bytes();
    if (in_use <= 0) return kSetupFailed;
    const auto limit = static_cast<rlim_t>(in_use + 20 * stack + stack / 2);
    const rlimit as{limit, limit};
    if (::setrlimit(RLIMIT_AS, &as) != 0) return kSetupFailed;
    return expect_clean_failure(cluster, log, "fiber stack mmap failed", -1);
  });
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kOk) << describe(status);
}

}  // namespace
}  // namespace ccf::runtime
