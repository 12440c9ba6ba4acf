#include "runtime/thread_cluster.hpp"

#include <exception>
#include <mutex>
#include <thread>

namespace ccf::runtime {

void ThreadCluster::run() {
  const std::shared_ptr<transport::Transport> fabric = start();
  const auto epoch = WallClock::now();
  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(registrations_.size());
  for (auto& reg : registrations_) {
    threads.emplace_back([&, this] {
      try {
        EndpointContext ctx(fabric->attach(reg.id), epoch, options_.copy_cost);
        reg.body(ctx);
      } catch (const transport::MailboxClosed&) {
        // Teardown path after another process failed; keep the first error.
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        fabric->shutdown();  // unblock peers waiting in recv()
      }
    });
  }
  for (auto& t : threads) t.join();
  end_time_ = std::chrono::duration<double>(WallClock::now() - epoch).count();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ccf::runtime
