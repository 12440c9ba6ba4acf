// A fiber whose stack cannot be mapped must fail the run with an error,
// not crash it: run() throws, every body that got a stack is unwound, and
// the body whose stack failed never starts — not even during the abort.
//
// Each scenario runs in a forked child, because it exhausts a per-process
// resource (the kernel's map-entry limit, or the address space), and
// reports through its exit code.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "simtime/virtual_cluster.hpp"

// GCC announces sanitizers with __SANITIZE_*__, Clang through __has_feature.
#ifdef __has_feature
#define CCF_HAS_FEATURE(x) __has_feature(x)
#else
#define CCF_HAS_FEATURE(x) 0
#endif

namespace ccf::simtime {
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

/// `procs` processes that each hold a logged local and advance twice.
void add_bodies(VirtualCluster& cluster, BodyLog& log, int procs) {
  log.events.reserve(2 * static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    cluster.add_process(p, [&log, p](SimContext& ctx) {
      LoggedLocal local(log, p + 1);
      ctx.advance(1.0);
      ctx.advance(1.0);
    });
  }
}

/// Runs the cluster, expecting it to throw an error naming `failed_call`,
/// and checks the bodies' log. Returns a child exit code.
int expect_clean_failure(VirtualCluster& cluster, const BodyLog& log,
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

/// Runs `scenario` in a forked child and returns its wait status.
int run_in_child(const std::function<int()>& scenario) {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(scenario());
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

TEST(FiberLimits, MapLimitAtGuardPageFailsTheRunInsteadOfCrashing) {
  // Each fiber stack costs two map entries: its mapping, and the split
  // that the guard page makes. Nine free entries fit four stacks; the
  // fifth stack's mapping takes the last entry and its guard page fails.
  if (kSanitizerShadowUsesMapEntries) {
    GTEST_SKIP() << "the sanitizer runtime competes for map entries at the limit";
  }
  const long limit = max_map_count();
  ASSERT_GT(limit, 0) << "cannot read /proc/sys/vm/max_map_count";
  if (limit > (1L << 22)) GTEST_SKIP() << "vm.max_map_count " << limit << " is too large to fill";
  const int status = run_in_child([limit] {
    VirtualCluster cluster;
    BodyLog log;
    add_bodies(cluster, log, 8);
    MapTableFiller filler;
    if (!filler.fill_to(limit - 9)) return kSetupFailed;
    return expect_clean_failure(cluster, log, "fiber guard page mprotect failed", 4);
  });
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kOk) << describe(status);
}

TEST(FiberLimits, StackMapFailureUnwindsExactlyTheMappedBodies) {
  // An address-space limit with room for about 20 stacks: the first
  // stack mapping past it fails, and only the bodies that already had a
  // stack may run, each to its unwinding.
  const int status = run_in_child([] {
    VirtualCluster cluster;
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
}  // namespace ccf::simtime
