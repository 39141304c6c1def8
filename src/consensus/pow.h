// Proof-of-work engine (Eqn 6 of the paper):
//
//     output = hash( hash(TX1) || hash(TX2) || nonce )
//
// A nonce is valid when the output has at least `difficulty` leading zero
// bits. The Miner really grinds nonces (used by tests, examples and
// host-scale benches); the simulator's DeviceProfile models the same search
// analytically at calibrated device speeds (see sim/device_profile.h).
// ParallelMiner shards the nonce space across a private thread pool
// (first-found-wins) for server-class gateways serving offloaded-PoW attach
// requests.
//
// Both miners grind through tangle::PowMidstate: the 64 parent bytes are
// compressed once per mine() call and each attempt costs a single SHA-256
// compression of the 8-byte nonce tail (half the work of re-hashing the full
// 72-byte message), issued in multi-buffer strides of crypto::sha256_lanes()
// consecutive nonces. pow_counters() exposes the attempts/compressions ratio
// so benches can prove the ~1 block-per-attempt claim.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/executor.h"
#include "obs/metrics.h"
#include "tangle/transaction.h"

namespace biot::consensus {

/// A SHA-256 digest has 256 bits, so no nonce can ever produce more leading
/// zero bits than this. Both miners refuse (nullopt) difficulties above it
/// instead of spinning forever on an unbounded search.
inline constexpr int kMaxPowDifficulty = 256;

/// Process-wide mining work counters: nonces examined and SHA-256
/// compressions spent examining them. blocks/attempt ≈ 1 with the midstate
/// cache (plus one prefix compression per mine() call); it was 2 when every
/// attempt re-hashed the full 72-byte message.
struct PowCounters {
  obs::Counter attempts;
  obs::Counter sha_blocks;
};
PowCounters& pow_counters();

struct MineResult {
  std::uint64_t nonce = 0;
  std::uint64_t attempts = 0;  // nonces examined up to and incl. the winner
};

class Miner {
 public:
  /// `start_nonce` seeds the search (vary per node for determinism without
  /// collisions); `max_attempts` bounds runaway searches (0 = unbounded).
  explicit Miner(std::uint64_t start_nonce = 0, std::uint64_t max_attempts = 0)
      : next_nonce_(start_nonce), max_attempts_(max_attempts) {}

  /// Searches for a nonce meeting `difficulty` leading zero bits.
  /// Returns nullopt when max_attempts is exhausted or the difficulty is
  /// unattainable (> kMaxPowDifficulty).
  std::optional<MineResult> mine(const tangle::TxId& parent1,
                                 const tangle::TxId& parent2, int difficulty);

  std::uint64_t total_attempts() const { return total_attempts_; }

 private:
  std::uint64_t next_nonce_;
  std::uint64_t max_attempts_;
  std::uint64_t total_attempts_ = 0;
};

/// Multi-threaded nonce search over a private ThreadPoolExecutor: threads
/// are spawned once in the constructor and parked between searches, so a
/// gateway serving offloaded-PoW attach requests pays no spawn/join per
/// mine() call. Each mine() fans one shard per thread out through a
/// TaskGroup. The nonce space is sharded block-cyclically (blocks of 64
/// consecutive nonces, shard t takes blocks t, t+T, ...) so each shard feeds
/// the multi-buffer compressor runs of consecutive nonces; the first shard
/// to meet the target stops the others. Any returned nonce is valid; WHICH
/// valid nonce wins a given search may differ across thread counts and runs
/// (see DESIGN.md "ParallelMiner determinism"). Attempts accounting stays
/// exact: the result's `attempts` (and `total_attempts`) sum every nonce
/// examined by every shard, so energy/work proxies remain comparable with
/// Miner. The pool is private, so no shard can ever wait on its own pool.
///
/// mine() is single-caller (one search at a time); total_attempts() may be
/// sampled from any thread.
class ParallelMiner {
 public:
  /// `threads` = 0 picks the hardware concurrency. `max_attempts` (0 =
  /// unbounded) bounds the *combined* attempts of one `mine` call; like
  /// Miner, the search gives up only once the bound is exhausted.
  explicit ParallelMiner(unsigned threads = 0, std::uint64_t start_nonce = 0,
                         std::uint64_t max_attempts = 0);

  std::optional<MineResult> mine(const tangle::TxId& parent1,
                                 const tangle::TxId& parent2, int difficulty);

  unsigned thread_count() const { return threads_; }
  std::uint64_t total_attempts() const {
    return total_attempts_.load(std::memory_order_relaxed);
  }

 private:
  /// One search's parameters, shared read-only by every shard.
  struct Job {
    tangle::PowMidstate mid;
    int difficulty = 0;
    std::uint64_t start = 0;
    std::uint64_t budget = 0;  // per-shard attempt bound (0 = unbounded)
  };

  /// What one shard reports back when its grind ends.
  struct ShardResult {
    std::uint64_t attempts = 0;
    std::uint64_t end_nonce = 0;  // highest nonce examined + 1
  };

  ShardResult grind_shard(unsigned t, const Job& job);

  const unsigned threads_;
  const std::uint64_t max_attempts_;
  std::uint64_t start_nonce_;  // mine() only
  std::atomic<std::uint64_t> total_attempts_{0};

  std::atomic<bool> found_{false};
  std::atomic<std::uint64_t> winner_{0};

  std::unique_ptr<Executor> pool_;  // inline when threads_ == 1
};

}  // namespace biot::consensus
