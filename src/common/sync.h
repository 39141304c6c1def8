// Capability-annotated synchronization primitives — the ONLY place in src/
// allowed to name std::mutex / std::condition_variable (enforced by the
// biot-lint `raw-sync` rule; this header carries the justified allow()
// carve-outs).
//
// Two independent layers ride on the same wrappers:
//
// 1. Clang Thread Safety Analysis (compile time, every build where the
//    compiler is Clang; the `clang-thread-safety` CI job makes it -Werror).
//    `Mutex` is a CAPABILITY, `MutexLock` a SCOPED_CAPABILITY, and every
//    field guarded by a mutex is annotated GUARDED_BY(mutex_) at its
//    declaration, so "read without the lock" or "call without REQUIRES"
//    is a compile error on every translation unit — not just on the code
//    paths a TSan run happens to execute. On non-Clang compilers the
//    macros expand to nothing and the wrappers cost exactly what the raw
//    primitives cost.
//
// 2. Lock-rank deadlock checking (runtime, opt-in). Every Mutex is
//    constructed with a rank from the global order below; when checking is
//    enabled (BIOT_AUDIT=1, i.e. every sanitizer CI job, or
//    set_lock_rank_checking(true)) a thread acquiring a mutex whose rank is
//    not strictly greater than every rank it already holds aborts with both
//    ranks printed. Deadlock requires acquiring in conflicting orders;
//    a total acquisition order makes that impossible, and the checker
//    validates the order on real executions instead of trusting comments.
//
// Global lock-rank order (low = outer/first, high = inner/last; the full
// table with the nesting that motivates each edge lives in DESIGN.md §12):
//
//   kRankTaskGroup(10) < kRankExecutorQueue(20) < kRankMetrics(40)
//                      < kRankLog(50)
//
// kRankLog is the innermost capability in the system: any subsystem may
// emit a log line while holding its own lock (the metrics registry does,
// on kind-mismatch warnings), so nothing may be acquired under it.
#pragma once

#include <condition_variable>  // biot-lint: allow(raw-sync) the one wrapper layer
#include <cstdint>
#include <mutex>         // biot-lint: allow(raw-sync) the one wrapper layer
#include <shared_mutex>  // biot-lint: allow(raw-sync) the one wrapper layer

// ---- Clang Thread Safety Analysis attribute vocabulary ---------------------
// The canonical macro names from clang.llvm.org/docs/ThreadSafetyAnalysis —
// no-ops on every compiler that is not Clang.

#if defined(__clang__) && !defined(SWIG)
#define BIOT_TS_ATTR(x) __attribute__((x))
#else
#define BIOT_TS_ATTR(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) BIOT_TS_ATTR(capability(x))
#define SCOPED_CAPABILITY BIOT_TS_ATTR(scoped_lockable)
#define GUARDED_BY(x) BIOT_TS_ATTR(guarded_by(x))
#define PT_GUARDED_BY(x) BIOT_TS_ATTR(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) BIOT_TS_ATTR(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) BIOT_TS_ATTR(acquired_after(__VA_ARGS__))
#define REQUIRES(...) BIOT_TS_ATTR(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  BIOT_TS_ATTR(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) BIOT_TS_ATTR(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) BIOT_TS_ATTR(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) BIOT_TS_ATTR(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) BIOT_TS_ATTR(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) BIOT_TS_ATTR(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) BIOT_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  BIOT_TS_ATTR(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) BIOT_TS_ATTR(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) BIOT_TS_ATTR(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) BIOT_TS_ATTR(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) BIOT_TS_ATTR(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS BIOT_TS_ATTR(no_thread_safety_analysis)

namespace biot::sync {

// ---- Lock-rank order -------------------------------------------------------

/// A mutex constructed without a rank opts out of order checking (fine for
/// purely local mutexes that never nest; every subsystem singleton below
/// carries a rank).
inline constexpr unsigned kNoRank = 0;

inline constexpr unsigned kRankTaskGroup = 10;      // common/executor.h
inline constexpr unsigned kRankExecutorQueue = 20;  // common/executor.h
inline constexpr unsigned kRankMetrics = 40;        // obs/metrics.h
inline constexpr unsigned kRankLog = 50;            // common/log.cpp (inner)

/// Whether acquiring mutexes out of rank order aborts. Defaults to the
/// BIOT_AUDIT=1 environment toggle (the same opt-in the tangle invariant
/// auditor uses, so every sanitizer CI job validates lock ordering);
/// set_lock_rank_checking overrides it either way (tests use this to get a
/// deterministic abort regardless of environment).
bool lock_rank_checking();
void set_lock_rank_checking(bool enabled);

namespace internal {
/// Rank bookkeeping on the calling thread, shared by Mutex and SharedMutex.
/// `on_acquire` aborts (printing the held ranks and the offending rank) when
/// `rank` is ranked and not strictly greater than every rank already held.
void on_acquire(unsigned rank);
void on_release(unsigned rank);
}  // namespace internal

// ---- Mutex -----------------------------------------------------------------

/// Exclusive mutex: std::mutex plus (1) the CAPABILITY annotation Clang's
/// analysis keys on and (2) the optional lock-rank check. Lock via MutexLock
/// wherever possible; bare lock()/unlock() exist for the condvar handoff
/// patterns RAII cannot express.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(unsigned rank = kNoRank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    internal::on_acquire(rank_);
    inner_.lock();
  }
  void unlock() RELEASE() {
    // The rank is read before the release: once inner_ is free, a waiter
    // may destroy the object that owns this mutex (a TaskGroup whose wait()
    // returned), so nothing of `this` may be touched afterwards.
    const unsigned rank = rank_;
    inner_.unlock();
    internal::on_release(rank);
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!inner_.try_lock()) return false;
    internal::on_acquire(rank_);
    return true;
  }

  /// Tells the analysis this thread holds the mutex when the proof cannot
  /// be expressed structurally (e.g. a callback invoked under the lock).
  void assert_held() const ASSERT_CAPABILITY(this) {}

  unsigned rank() const { return rank_; }

 private:
  friend class CondVar;  // waits on inner_ without re-running rank checks

  std::mutex inner_;  // biot-lint: allow(raw-sync) the one wrapper layer
  const unsigned rank_;
};

/// Shared (reader/writer) mutex with the same rank discipline. Writers go
/// through lock()/WriterMutexLock, readers through ReaderMutexLock.
class CAPABILITY("mutex") SharedMutex {
 public:
  explicit SharedMutex(unsigned rank = kNoRank) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    internal::on_acquire(rank_);
    inner_.lock();
  }
  void unlock() RELEASE() {
    const unsigned rank = rank_;  // read before release, as in Mutex::unlock
    inner_.unlock();
    internal::on_release(rank);
  }
  void lock_shared() ACQUIRE_SHARED() {
    internal::on_acquire(rank_);
    inner_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    const unsigned rank = rank_;  // read before release, as in Mutex::unlock
    inner_.unlock_shared();
    internal::on_release(rank);
  }

  void assert_held() const ASSERT_CAPABILITY(this) {}

  unsigned rank() const { return rank_; }

 private:
  std::shared_mutex inner_;  // biot-lint: allow(raw-sync) the one wrapper layer
  const unsigned rank_;
};

// ---- RAII locks ------------------------------------------------------------

/// Scoped exclusive lock over Mutex. SCOPED_CAPABILITY means the analysis
/// tracks the capability from construction to destruction, so a guarded
/// field is provably accessible exactly within the block.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive (writer) lock over SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() RELEASE_SHARED() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---- CondVar ---------------------------------------------------------------

/// Condition variable bound to Mutex. wait() REQUIRES the mutex, which is
/// exactly the contract std::condition_variable leaves implicit — under the
/// analysis, waiting without holding the lock no longer compiles. The wait
/// releases and reacquires the underlying std::mutex internally; the rank
/// bookkeeping deliberately keeps the mutex on the held stack for the whole
/// wait, because on return the caller holds it again and a sleeping thread
/// acquires nothing in between.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// One wakeup. Callers loop on their predicate explicitly —
  /// `while (!ready_) cv_.wait(mutex_);` — which is the shape the analysis
  /// proves directly (a predicate-lambda overload cannot carry a REQUIRES
  /// the analysis can match to `mu`).
  void wait(Mutex& mu) REQUIRES(mu);

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // biot-lint: allow(raw-sync) the one wrapper layer
  std::condition_variable cv_;
};

}  // namespace biot::sync
