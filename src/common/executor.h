// Task execution backends for the concurrent admission core and the
// gateway's parallel PoW grind — the one thread pool in src/ (biot_lint's
// raw-sync rule flags a std::thread anywhere else). Two backends share one
// interface:
//
//   InlineExecutor     runs every task at the submit() call site, in order.
//                      Zero threads, zero queues — the deterministic twin
//                      used by the simulator and by equivalence tests (the
//                      ROADMAP `_brute_force` pattern applied to
//                      concurrency: the concurrent pipeline run on an
//                      InlineExecutor must be byte-identical to the serial
//                      reference).
//
//   ThreadPoolExecutor fixed worker pool draining one MPMC queue under a
//                      capability-annotated mutex + condvar (the action-
//                      queue shape: producers enqueue closures, any idle
//                      worker picks the next). Workers live until
//                      shutdown(); shutdown drains the queue before joining
//                      and tasks submitted after it run inline at the call
//                      site, so no submitted task is ever lost.
//
// TaskGroup layers structured fan-out/join on either backend: spawn() hands
// tasks to the executor, wait() blocks until every spawned task finished.
// The join is a full happens-before edge (mutex + condvar), so results
// written by worker threads are safely readable after wait() returns.
//
// Tasks must not throw: an exception escaping a worker-thread closure has no
// caller to land in, so it would terminate the process either way. Keep
// failure signalling in the task's captured state.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace biot {

/// Where to run a closure. Implementations may run it synchronously at the
/// call site (InlineExecutor) or hand it to a worker thread.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Schedules `task` for execution exactly once. May run it before
  /// returning (inline backend).
  virtual void submit(std::function<void()> task) = 0;

  /// Number of tasks this executor can run at the same time (1 = serial).
  /// Callers size their fan-out chunks off this.
  virtual std::size_t concurrency() const = 0;

  /// Tasks submitted but not yet picked up by a worker (0 for the inline
  /// backend, which never queues). A sampling gauge, not a synchronization
  /// primitive.
  virtual std::size_t queue_depth() const { return 0; }

  /// Total tasks ever handed to submit(). Monotonic; like queue_depth a
  /// sampling counter (PR 8's batch metrics read both mid-fan-out, which is
  /// why they are a locked read and an atomic rather than unguarded fields).
  virtual std::uint64_t submitted() const { return 0; }
};

/// Runs every task synchronously at the submit() call site — deterministic
/// by construction and the sim/test default.
class InlineExecutor final : public Executor {
 public:
  void submit(std::function<void()> task) override {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    task();
  }
  std::size_t concurrency() const override { return 1; }
  std::uint64_t submitted() const override {
    return submitted_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> submitted_{0};
};

/// Fixed pool of worker threads draining a shared FIFO queue.
class ThreadPoolExecutor final : public Executor {
 public:
  /// `threads` workers (0 = hardware concurrency, minimum 1).
  explicit ThreadPoolExecutor(unsigned threads);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void submit(std::function<void()> task) override;
  std::size_t concurrency() const override { return workers_.size(); }
  std::size_t queue_depth() const override;
  std::uint64_t submitted() const override {
    return submitted_.load(std::memory_order_relaxed);
  }

  /// Stops the pool: already-queued tasks still run (drain-before-join),
  /// workers are joined, and any task submitted from here on runs inline at
  /// its submit() call site. Idempotent from the owning thread; the
  /// destructor calls it. Racing submit() against shutdown() is safe — the
  /// exactly-once guarantee holds either way — racing two shutdown() calls
  /// is not (same rule as racing the destructor).
  void shutdown();

 private:
  void worker_loop();

  mutable sync::Mutex mutex_{sync::kRankExecutorQueue};
  sync::CondVar work_cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::atomic<std::uint64_t> submitted_{0};
  // biot-lint: allow(guarded-field) written in ctor, joined in shutdown() only
  std::vector<std::thread> workers_;  // biot-lint: allow(raw-sync) the one pool
};

/// Structured fan-out/join over any Executor. Destruction waits, so a group
/// cannot outlive the state its tasks reference.
class TaskGroup {
 public:
  explicit TaskGroup(Executor& executor) : executor_(executor) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `task` on the executor and counts it toward wait().
  void spawn(std::function<void()> task);

  /// Blocks until every spawned task has finished. Establishes
  /// happens-before with each task's completion, so their writes are
  /// visible to the caller afterwards.
  void wait();

 private:
  Executor& executor_;
  sync::Mutex mutex_{sync::kRankTaskGroup};
  sync::CondVar done_cv_;
  std::size_t pending_ GUARDED_BY(mutex_) = 0;
};

}  // namespace biot
