#ifndef COPYATTACK_UTIL_THREAD_POOL_H_
#define COPYATTACK_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.h"

namespace copyattack::util {

/// Fixed-size worker pool used to parallelize independent attack campaigns
/// (e.g. the 50 target items of Table 2) across cores. Tasks may not spawn
/// nested tasks into the same pool.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// The process-wide shared pool (one worker per hardware thread),
  /// created lazily on first use and reused by every `ParallelFor` — so
  /// repeated fan-outs don't pay thread creation/join per call.
  static ThreadPool& Shared();

  /// Runs `fn(i)` for every `i` in `[0, n)` with up to `num_threads`
  /// concurrent executors and waits. Indices are claimed dynamically from
  /// an atomic counter, so uneven per-index work (e.g. target items whose
  /// episodes end early) load-balances instead of being pinned to a
  /// static stripe. The calling thread participates, which both caps the
  /// helper count at `num_threads - 1` and guarantees progress even when
  /// the shared pool is busy.
  ///
  /// Re-entrant: a nested call from inside `fn` runs its range inline on
  /// the calling executor instead of submitting helpers. Submitting from
  /// within a pool task and then blocking would deadlock once every
  /// worker is parked in an outer wait — the outermost call already owns
  /// the available parallelism, so the inner level has nothing to gain.
  static void ParallelFor(std::size_t n, std::size_t num_threads,
                          const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_ CA_GUARDED_BY(mutex_);
  /// Leaf lock: worker and submitter paths never take another lock while
  /// holding it (zero-arg annotation = tracked in the lock-order graph).
  std::mutex mutex_ CA_ACQUIRED_BEFORE();
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ CA_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ CA_GUARDED_BY(mutex_) = false;
};

}  // namespace copyattack::util

#endif  // COPYATTACK_UTIL_THREAD_POOL_H_
