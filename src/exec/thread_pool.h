// ThreadPool: a fixed-size worker pool with a single FIFO task queue.
//
// The execution substrate for the parallel query layer (see
// parallel_executor.h). Deliberately minimal: tasks are type-erased
// std::function<void()>, submission is thread-safe, and the destructor
// drains the queue before joining so no submitted task is lost.

#ifndef BOXAGG_EXEC_THREAD_POOL_H_
#define BOXAGG_EXEC_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/sync.h"

namespace boxagg {
namespace exec {

/// \brief Fixed pool of worker threads consuming a shared task queue.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(size_t threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker. Safe from any thread.
  void Submit(std::function<void()> task);

  [[nodiscard]] size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();

  sync::Mutex mu_{"threadpool.queue", sync::lock_rank::kThreadPoolQueue};
  sync::CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace boxagg

#endif  // BOXAGG_EXEC_THREAD_POOL_H_
