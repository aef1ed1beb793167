#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "obs/obs.h"
#include "util/check.h"

namespace copyattack::util {

namespace {

/// True while the current thread is executing a `ParallelFor` range. Nested
/// calls check it to fall back to inline execution — submitting helper tasks
/// from inside a pool task and blocking on them deadlocks when every worker
/// is parked in an outer call's completion wait.
thread_local bool t_inside_parallel_for = false;

/// Scoped setter so early returns and nested scopes restore the flag.
class ParallelForScope {
 public:
  ParallelForScope() { t_inside_parallel_for = true; }
  ParallelForScope(const ParallelForScope&) = delete;
  ParallelForScope& operator=(const ParallelForScope&) = delete;
  ~ParallelForScope() { t_inside_parallel_for = false; }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  CA_CHECK(task != nullptr);
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CA_CHECK(!shutting_down_) << "Submit after shutdown";
    tasks_.push(std::move(task));
    ++in_flight_;
    depth = tasks_.size();
  }
  OBS_COUNTER_INC("pool.tasks_submitted");
  OBS_GAUGE_SET("pool.queue_depth", depth);
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        // shutting_down_ must be true here.
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    OBS_COUNTER_INC("pool.tasks_executed");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* const pool = new ThreadPool(  // analyze:allow(raw-new): process-lifetime singleton
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return *pool;
}

void ThreadPool::ParallelFor(std::size_t n, std::size_t num_threads,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  OBS_COUNTER_INC("pool.parallel_for_calls");
  if (num_threads <= 1 || n == 1 || t_inside_parallel_for) {
    // Serial path. The re-entrant case lands here too: the outermost call
    // already fanned out across the pool, so a nested call runs its range
    // inline on this executor instead of deadlocking on busy workers.
    if (t_inside_parallel_for) OBS_COUNTER_INC("pool.parallel_for_inline_nested");
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Dynamic work queue: every executor (the helpers below plus the calling
  // thread) claims the next unclaimed index until the range is drained.
  std::atomic<std::size_t> next{0};
  const auto drain = [&next, &fn, n] {
    ParallelForScope scope;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };

  ThreadPool& pool = Shared();
  const std::size_t helpers =
      std::min({num_threads - 1, n - 1, pool.size()});
  // Per-call completion latch (pool.Wait() would also wait on unrelated
  // tasks submitted by concurrent callers).
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t pending = helpers;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.Submit([&drain, &done_mutex, &done_cv, &pending] {
      drain();
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--pending == 0) done_cv.notify_one();
    });
  }
  drain();
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&pending] { return pending == 0; });
}

}  // namespace copyattack::util
