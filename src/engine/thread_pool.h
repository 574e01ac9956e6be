// A fixed-size worker pool — the execution substrate of the RCJ engine.
// Deliberately minimal: tasks are type-erased thunks, there is no work
// stealing, and the only synchronization primitives are one mutex and one
// condition variable, so the scheduling behavior stays easy to reason
// about under profiling. Two queues share them: fresh tasks in FIFO
// order, which always run first, and tasks that yielded their worker,
// which take turns between groups and run lowest rank first within one.
#ifndef RINGJOIN_ENGINE_THREAD_POOL_H_
#define RINGJOIN_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace rcj {

/// Fixed-size thread pool. Submit() enqueues a task from any thread.
/// Nothing waits for the pool as a whole: it is shared by independent
/// queries, each of which counts its own tasks and is finished by the last
/// of them.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1; 0 is promoted to
  /// std::thread::hardware_concurrency()).
  explicit ThreadPool(size_t num_threads);

  /// Drains both queues, then joins all workers.
  ~ThreadPool();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Enqueues one task at the back of the fresh FIFO queue. Thread-safe.
  void Submit(std::function<void()> task);

  /// Enqueues a task that yielded its worker. Yielded tasks run once no
  /// fresh task waits; the pool takes turns between their groups (round
  /// robin by group id), and within a group runs the lowest `rank` first
  /// (equal ranks in FIFO order). Thread-safe.
  void Yield(std::function<void()> task, uint64_t group, uint64_t rank);

  size_t num_threads() const { return threads_.size(); }

  /// Index of the calling thread within its owning pool ([0, num_threads)),
  /// or kNotAWorker when the caller is not a pool worker. Each worker
  /// thread belongs to exactly one pool for its whole lifetime, so the
  /// index is a stable per-pool identity — the engine uses it to give every
  /// worker a private long-lived execution context without any locking.
  static size_t CurrentWorkerIndex();
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);

 private:
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  /// group -> (rank -> task); `next_group_` is the round-robin cursor.
  std::map<uint64_t, std::multimap<uint64_t, std::function<void()>>>
      yielded_;
  uint64_t next_group_ = 0;
  bool shutting_down_ = false;
};

}  // namespace rcj

#endif  // RINGJOIN_ENGINE_THREAD_POOL_H_
