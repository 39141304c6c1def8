#include "common/executor.h"

#include <utility>

namespace biot {

ThreadPoolExecutor::ThreadPoolExecutor(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() { shutdown(); }

void ThreadPoolExecutor::shutdown() {
  {
    const sync::MutexLock lock(mutex_);
    if (shutdown_) return;  // already drained and joined
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPoolExecutor::submit(std::function<void()> task) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    const sync::MutexLock lock(mutex_);
    if (!shutdown_) {
      queue_.push_back(std::move(task));
      task = nullptr;
    }
    // else: fall through and run inline below, outside the lock — the
    // workers are draining (or already joined), so handing them the task
    // could lose it; running it at the call site keeps exactly-once.
  }
  if (task) {
    task();
    return;
  }
  work_cv_.notify_one();
}

std::size_t ThreadPoolExecutor::queue_depth() const {
  const sync::MutexLock lock(mutex_);
  return queue_.size();
}

void ThreadPoolExecutor::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      sync::MutexLock lock(mutex_);
      while (!shutdown_ && queue_.empty()) work_cv_.wait(mutex_);
      // Drain-before-exit: shutdown only stops a worker once the queue is
      // empty, so every submitted task runs exactly once.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void TaskGroup::spawn(std::function<void()> task) {
  {
    const sync::MutexLock lock(mutex_);
    ++pending_;
  }
  executor_.submit([this, task = std::move(task)] {
    task();
    // Notify under the lock: once the last task releases mutex_, wait() may
    // return and the group be destroyed, so nothing of `this` (done_cv_
    // included) may be touched after the release.
    const sync::MutexLock lock(mutex_);
    if (--pending_ == 0) done_cv_.notify_all();
  });
}

void TaskGroup::wait() {
  sync::MutexLock lock(mutex_);
  while (pending_ != 0) done_cv_.wait(mutex_);
}

}  // namespace biot
