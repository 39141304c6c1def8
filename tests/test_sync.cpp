// Tests for the capability-annotated sync layer (DESIGN.md §12): Mutex /
// MutexLock RAII (including release on exception), SharedMutex reader
// sharing, CondVar wait/notify across real threads (ctest label
// `concurrency`, so the TSan CI job runs this binary), and the lock-rank
// deadlock checker — ordered acquisition passes, out-of-order or equal-rank
// acquisition aborts with both ranks printed (pinned by death tests).
//
// The analysis itself (the compile-time half of the layer) is pinned by the
// negative-compile fixtures in tests/negative_compile/, registered as
// `negcompile_*` ctest entries when the compiler is Clang.
#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace biot::sync {
namespace {

/// Forces the lock-rank checker on/off for one test and restores "off"
/// afterwards, so test order (and the BIOT_AUDIT environment) cannot leak
/// between cases.
class ScopedRankChecking {
 public:
  explicit ScopedRankChecking(bool enabled) { set_lock_rank_checking(enabled); }
  ~ScopedRankChecking() { set_lock_rank_checking(false); }
};

TEST(MutexTest, LockUnlockAndTryLock) {
  Mutex mu;
  mu.lock();
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(MutexTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu;
  MutexLock lock(mu);
  std::atomic<bool> other_got_it{true};
  std::thread t([&] {
    if (mu.try_lock()) {
      mu.unlock();
    } else {
      other_got_it.store(false);
    }
  });
  t.join();
  EXPECT_FALSE(other_got_it.load());
}

TEST(MutexLockTest, ReleasesOnException) {
  Mutex mu;
  try {
    const MutexLock lock(mu);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // The RAII destructor must have run during unwinding; the mutex is free.
  const bool reacquired = mu.try_lock();
  EXPECT_TRUE(reacquired);
  if (reacquired) mu.unlock();
}

TEST(SharedMutexTest, ReadersShareTheLock) {
  SharedMutex mu;
  std::atomic<bool> second_reader_entered{false};
  const ReaderMutexLock first(mu);
  // If readers excluded each other this join would deadlock (and the test
  // would time out) — the second reader must get in while we hold the lock.
  std::thread t([&] {
    const ReaderMutexLock second(mu);
    second_reader_entered.store(true);
  });
  t.join();
  EXPECT_TRUE(second_reader_entered.load());
}

TEST(SharedMutexTest, WriterLockIsExclusive) {
  SharedMutex mu;
  int value = 0;
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        const WriterMutexLock lock(mu);
        ++value;  // would be a TSan race if writers ever overlapped
      }
    });
  for (auto& th : writers) th.join();
  const ReaderMutexLock lock(mu);
  EXPECT_EQ(value, 4000);
}

TEST(CondVarTest, WaitNotifyHandsOffAcrossThreads) {
  Mutex mu;
  CondVar cv;
  int stage = 0;  // 0 = start, 1 = main published, 2 = consumer replied
  std::thread consumer([&] {
    MutexLock lock(mu);
    while (stage != 1) cv.wait(mu);
    stage = 2;
    cv.notify_all();
  });
  {
    MutexLock lock(mu);
    stage = 1;
    cv.notify_all();
    while (stage != 2) cv.wait(mu);
  }
  consumer.join();
  const MutexLock lock(mu);
  EXPECT_EQ(stage, 2);
}

TEST(CondVarTest, NotifyOneWakesASleeper) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread sleeper([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
  });
  {
    const MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  sleeper.join();  // hangs (and times out) on a lost wakeup
}

// ---- Lock-rank checker -----------------------------------------------------

TEST(LockRankTest, OrderedAcquisitionPasses) {
  const ScopedRankChecking checking(true);
  Mutex outer(kRankTaskGroup);
  Mutex middle(kRankExecutorQueue);
  Mutex inner(kRankLog);
  {
    const MutexLock l1(outer);
    const MutexLock l2(middle);
    const MutexLock l3(inner);
  }
  // Skipping ranks is fine — only the relative order matters.
  {
    const MutexLock l1(outer);
    const MutexLock l3(inner);
  }
  // Re-acquiring an outer rank after a full release is fine too.
  const MutexLock l1(outer);
}

TEST(LockRankTest, UnrankedMutexesOptOut) {
  const ScopedRankChecking checking(true);
  Mutex ranked(kRankMetrics);
  Mutex unranked;  // kNoRank
  const MutexLock l1(ranked);
  const MutexLock l2(unranked);  // no abort in either nesting direction
}

TEST(LockRankTest, DisabledCheckingIgnoresOrder) {
  const ScopedRankChecking checking(false);
  Mutex inner(kRankLog);
  Mutex outer(kRankMetrics);
  const MutexLock l1(inner);
  const MutexLock l2(outer);  // out of order, but the checker is off
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  const ScopedRankChecking checking(true);
  Mutex inner(kRankLog);
  Mutex outer(kRankMetrics);
  const MutexLock hold_inner(inner);
  EXPECT_DEATH({ const MutexLock bad(outer); }, "lock rank violation");
}

TEST(LockRankDeathTest, EqualRankAcquisitionAborts) {
  const ScopedRankChecking checking(true);
  Mutex first(kRankMetrics);
  Mutex second(kRankMetrics);
  const MutexLock hold_first(first);
  // Two locks of the same rank have no defined order between them, so the
  // checker treats rank ties as violations too.
  EXPECT_DEATH({ const MutexLock bad(second); }, "lock rank violation");
}

TEST(LockRankDeathTest, AbortMessageNamesBothRanks) {
  const ScopedRankChecking checking(true);
  Mutex inner(kRankLog);
  Mutex outer(kRankTaskGroup);
  const MutexLock hold_inner(inner);
  EXPECT_DEATH({ const MutexLock bad(outer); },
               "acquiring rank 10 while holding rank 50");
}

}  // namespace
}  // namespace biot::sync
