#include "runtime/process_cluster.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "util/check.hpp"

namespace ccf::runtime {

namespace {

// Child -> launcher result record: [u8 status][u64 len][len bytes].
// status 0 = success (bytes are the encoded results), 1 = error (bytes
// are the what() text), 2 = teardown after a sibling failure.
enum : std::uint8_t { kChildOk = 0, kChildError = 1, kChildTorndown = 2 };

void write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // launcher gone; nothing useful left to do
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void write_record(int fd, std::uint8_t status, const std::vector<std::byte>& bytes) {
  write_all(fd, &status, sizeof status);
  const std::uint64_t len = bytes.size();
  write_all(fd, &len, sizeof len);
  if (!bytes.empty()) write_all(fd, bytes.data(), bytes.size());
}

/// Reads one child record; false when the pipe EOFed mid-record (the
/// child died before reporting).
bool read_record(int fd, std::uint8_t& status, std::vector<std::byte>& bytes) {
  auto read_exact = [fd](void* data, std::size_t n) {
    char* p = static_cast<char*>(data);
    while (n > 0) {
      const ssize_t r = ::read(fd, p, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (r == 0) return false;
      p += r;
      n -= static_cast<std::size_t>(r);
    }
    return true;
  };
  if (!read_exact(&status, sizeof status)) return false;
  std::uint64_t len = 0;
  if (!read_exact(&len, sizeof len)) return false;
  bytes.resize(static_cast<std::size_t>(len));
  return bytes.empty() || read_exact(bytes.data(), bytes.size());
}

}  // namespace

ProcessCluster::ProcessCluster(ClusterOptions options) : WallClockCluster(std::move(options)) {
  // The in-memory fabric cannot cross a process boundary; multi-process
  // mode always rides the real backend.
  options_.transport.kind = transport::TransportKind::Real;
}

void ProcessCluster::run() {
  // Everything shared — rings, doorbells, listeners, counters — exists
  // before the first fork, so children only inherit, never rendezvous on
  // creation order.
  const std::shared_ptr<transport::Transport> fabric = start();

  const std::size_t n = registrations_.size();
  std::vector<int> read_fd(n, -1), write_fd(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    int fds[2];
    CCF_CHECK(::pipe(fds) == 0, "pipe() failed: " << std::strerror(errno));
    read_fd[i] = fds[0];
    write_fd[i] = fds[1];
  }

  const auto epoch = WallClock::now();
  std::vector<pid_t> pids(n, -1);
  // Children inherit the launcher's unflushed stdio buffers; flushing
  // first keeps launcher output from being written once per child.
  std::fflush(nullptr);
  // Fork every child before spawning any launcher-side thread: a fork
  // while another thread holds an allocator lock would deadlock the child.
  for (std::size_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    CCF_CHECK(pid >= 0, "fork() failed: " << std::strerror(errno));
    if (pid != 0) {
      pids[i] = pid;
      continue;
    }
    // Child: keep only this registration's write end.
    for (std::size_t j = 0; j < n; ++j) {
      ::close(read_fd[j]);
      if (j != i) ::close(write_fd[j]);
    }
    std::uint8_t status = kChildOk;
    std::vector<std::byte> result;
    try {
      Registration& reg = registrations_[i];
      EndpointContext ctx(fabric->attach(reg.id), epoch);
      reg.body(ctx);
      if (reg.channel.encode != nullptr) result = reg.channel.encode();
    } catch (const transport::MailboxClosed&) {
      status = kChildTorndown;
      result.clear();
    } catch (const std::exception& e) {
      status = kChildError;
      const char* what = e.what();
      result.assign(reinterpret_cast<const std::byte*>(what),
                    reinterpret_cast<const std::byte*>(what) + std::strlen(what));
    } catch (...) {
      status = kChildError;
      static const char kUnknown[] = "unknown child error";
      result.assign(reinterpret_cast<const std::byte*>(kUnknown),
                    reinterpret_cast<const std::byte*>(kUnknown) + sizeof kUnknown - 1);
    }
    // _exit drops stdio buffers, so the body's output (fully buffered when
    // stdout is not a terminal) is flushed here, before the launcher can
    // see this child finish and print after it.
    std::fflush(nullptr);
    write_record(write_fd[i], status, result);
    ::close(write_fd[i]);
    // _exit: no launcher-side destructors in the child.
    ::_exit(status == kChildOk || status == kChildTorndown ? 0 : 1);
  }
  for (int fd : write_fd) ::close(fd);

  // Collect results. On the first child error the shared closed flag
  // tears the remaining children down, so every pipe EOFs promptly.
  std::vector<std::uint8_t> status(n, kChildTorndown);
  std::vector<std::vector<std::byte>> blobs(n);
  // Plain byte flags, not vector<bool>: reader threads write distinct
  // elements concurrently.
  std::vector<std::uint8_t> reported(n, 0);
  std::mutex shutdown_mutex;
  bool shut = false;
  auto shutdown_once = [&] {
    std::lock_guard<std::mutex> lock(shutdown_mutex);
    if (!shut) {
      shut = true;
      transport_->shutdown();
    }
  };
  std::vector<std::thread> readers;
  readers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    readers.emplace_back([&, i] {
      reported[i] = read_record(read_fd[i], status[i], blobs[i]) ? 1 : 0;
      if (reported[i] == 0 || status[i] == kChildError) shutdown_once();
    });
  }
  for (auto& t : readers) t.join();
  for (int fd : read_fd) ::close(fd);

  std::vector<int> exit_status(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int ws = 0;
    while (::waitpid(pids[i], &ws, 0) < 0 && errno == EINTR) {}
    exit_status[i] = ws;
  }
  end_time_ = std::chrono::duration<double>(WallClock::now() - epoch).count();

  // First reported error wins, matching the thread backend's contract.
  for (std::size_t i = 0; i < n; ++i) {
    if (reported[i] && status[i] == kChildError)
      throw util::Error("process " + std::to_string(registrations_[i].id) + " failed: " +
                        std::string(reinterpret_cast<const char*>(blobs[i].data()),
                                    blobs[i].size()));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!reported[i]) {
      const int ws = exit_status[i];
      std::string how = WIFSIGNALED(ws)
                            ? "killed by signal " + std::to_string(WTERMSIG(ws))
                            : "exited with status " +
                                  std::to_string(WIFEXITED(ws) ? WEXITSTATUS(ws) : ws);
      throw util::Error("process " + std::to_string(registrations_[i].id) +
                        " died without reporting (" + how + ")");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == kChildOk && registrations_[i].channel.decode != nullptr)
      registrations_[i].channel.decode(blobs[i]);
  }
}

}  // namespace ccf::runtime
