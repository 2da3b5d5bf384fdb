// Work-stealing thread pool for the experiment sweep engine.
//
// Each worker owns a deque of queued tasks; external submissions are
// distributed round-robin, a worker pops from the back of its own deque and
// steals from the front of a sibling's when it runs dry. Results and
// exceptions propagate through std::future (a task that throws stores the
// exception in its future; the pool itself never dies from a job).
// Destruction is a drain: every task already submitted runs to completion
// before the workers join, so `{ ThreadPool p(2); p.submit(...); }` is a
// complete fork-join scope.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nucon::exp {

/// The most workers a command-line --threads flag may ask for; the CLIs
/// refuse larger values before any pool is built.
inline constexpr unsigned kMaxThreads = 256;

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (minimum 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains: all queued tasks run to completion, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Schedules `f` on some worker. The returned future yields f's result or
  /// rethrows the exception f exited with. Throws std::runtime_error if the
  /// pool is already shutting down.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// How many tasks are queued but not yet picked up (for tests/telemetry).
  [[nodiscard]] std::size_t queued() const;

 private:
  struct Worker {
    mutable std::mutex mu;
    std::deque<std::function<void()>> queue;
  };

  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t index);
  [[nodiscard]] bool try_pop(std::size_t index, std::function<void()>& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  mutable std::mutex cv_mu_;
  std::condition_variable cv_;
  std::size_t queued_count_ = 0;  // tasks sitting in some deque
  std::size_t next_ = 0;          // round-robin submission cursor
  bool stopping_ = false;
};

}  // namespace nucon::exp
