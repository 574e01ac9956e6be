#include "engine/thread_pool.h"

namespace rcj {
namespace {

thread_local size_t tls_worker_index = ThreadPool::kNotAWorker;

}  // namespace

size_t ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  threads_.reserve(num_threads);
  try {
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  } catch (...) {
    // Spawn failed partway (e.g. system thread limit): join what exists —
    // destroying a joinable std::thread would std::terminate the process.
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutting_down_ = true;
    }
    work_available_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Woken for shutdown with nothing left to run.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The library is Status-based and tasks are expected not to throw, but
    // an escaped exception (e.g. bad_alloc) must not take down the whole
    // process via std::terminate — one task's death is not the pool's.
    try {
      task();
    } catch (...) {
    }
  }
}

}  // namespace rcj
