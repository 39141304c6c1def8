#include "consensus/pow.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "crypto/sha256_midstate.h"

namespace biot::consensus {

PowCounters& pow_counters() {
  static PowCounters counters;
  return counters;
}

std::optional<MineResult> Miner::mine(const tangle::TxId& parent1,
                                      const tangle::TxId& parent2,
                                      int difficulty) {
  if (difficulty > kMaxPowDifficulty) return std::nullopt;

  PowCounters& counters = pow_counters();
  const tangle::PowMidstate mid(parent1, parent2);
  ++counters.sha_blocks;  // the one-off parent-prefix compression

  const std::uint64_t lanes = crypto::sha256_lanes();
  crypto::Sha256Digest digests[crypto::kSha256MaxLanes];
  std::uint64_t attempts = 0;
  for (;;) {
    // Clamp the stride to the remaining budget so a bounded search performs
    // exactly max_attempts_ attempts before giving up.
    std::uint64_t stride = lanes;
    if (max_attempts_ != 0)
      stride = std::min(stride, max_attempts_ - attempts);

    mid.output_many(next_nonce_, stride, digests);
    counters.sha_blocks += stride;
    for (std::uint64_t i = 0; i < stride; ++i) {
      if (tangle::leading_zero_bits(digests[i]) >= difficulty) {
        const std::uint64_t nonce = next_nonce_ + i;
        attempts += i + 1;
        next_nonce_ += i + 1;
        total_attempts_ += i + 1;
        counters.attempts += i + 1;
        return MineResult{nonce, attempts};
      }
    }
    attempts += stride;
    next_nonce_ += stride;
    total_attempts_ += stride;
    counters.attempts += stride;
    if (max_attempts_ != 0 && attempts >= max_attempts_) return std::nullopt;
  }
}

ParallelMiner::ParallelMiner(unsigned threads, std::uint64_t start_nonce,
                             std::uint64_t max_attempts)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())),
      max_attempts_(max_attempts),
      start_nonce_(start_nonce) {
  if (threads_ == 1)
    pool_ = std::make_unique<InlineExecutor>();
  else
    pool_ = std::make_unique<ThreadPoolExecutor>(threads_);
}

ParallelMiner::ShardResult ParallelMiner::grind_shard(unsigned t,
                                                      const Job& job) {
  // Block-cyclic sharding: blocks of kBlock consecutive nonces, thread t
  // takes blocks t, t+T, t+2T, ... Consecutive nonces within a block feed
  // the multi-buffer compressor full strides; 64 is a multiple of every
  // supported lane count.
  constexpr std::uint64_t kBlock = 64;
  const unsigned n = threads_;
  const std::uint64_t lanes = crypto::sha256_lanes();
  PowCounters& counters = pow_counters();
  crypto::Sha256Digest digests[crypto::kSha256MaxLanes];

  std::uint64_t local = 0;
  std::uint64_t end_nonce = job.start;
  const auto finish = [&] {
    counters.attempts += local;
    return ShardResult{local, end_nonce};
  };

  for (std::uint64_t block = t;; block += n) {
    const std::uint64_t block_start = job.start + block * kBlock;
    for (std::uint64_t off = 0; off < kBlock;) {
      if (found_.load(std::memory_order_relaxed)) return finish();
      std::uint64_t stride = std::min<std::uint64_t>(lanes, kBlock - off);
      if (job.budget != 0) {
        if (local >= job.budget) return finish();
        stride = std::min(stride, job.budget - local);
      }
      job.mid.output_many(block_start + off, stride, digests);
      counters.sha_blocks += stride;
      for (std::uint64_t i = 0; i < stride; ++i) {
        if (tangle::leading_zero_bits(digests[i]) >= job.difficulty) {
          local += i + 1;
          end_nonce = block_start + off + i + 1;
          // First thread to find a nonce wins; losers that found one in the
          // same instant simply discard theirs.
          bool expected = false;
          if (found_.compare_exchange_strong(expected, true))
            winner_.store(block_start + off + i, std::memory_order_relaxed);
          return finish();
        }
      }
      local += stride;
      off += stride;
      end_nonce = block_start + off;
    }
  }
}

std::optional<MineResult> ParallelMiner::mine(const tangle::TxId& parent1,
                                              const tangle::TxId& parent2,
                                              int difficulty) {
  if (difficulty > kMaxPowDifficulty) return std::nullopt;

  const unsigned n = threads_;
  const Job job{tangle::PowMidstate(parent1, parent2), difficulty, start_nonce_,
                // Round the per-shard budget up so the combined bound is >= the
                // requested one (a bounded search must not give up early).
                max_attempts_ == 0 ? 0 : (max_attempts_ + n - 1) / n};
  ++pow_counters().sha_blocks;  // the one-off parent-prefix compression
  found_.store(false, std::memory_order_relaxed);
  winner_.store(0, std::memory_order_relaxed);

  std::vector<ShardResult> shards(n);
  TaskGroup group(*pool_);
  for (unsigned t = 0; t < n; ++t)
    group.spawn([this, t, &job, &shards] { shards[t] = grind_shard(t, job); });
  group.wait();  // happens-before: every shard's result is visible below

  std::uint64_t combined = 0;
  std::uint64_t max_end = job.start;
  for (const ShardResult& shard : shards) {
    combined += shard.attempts;
    max_end = std::max(max_end, shard.end_nonce);
  }
  total_attempts_.fetch_add(combined, std::memory_order_relaxed);
  // Advance the search origin past everything examined so back-to-back
  // searches over the same parents do not re-grind identical prefixes.
  start_nonce_ = max_end;

  if (!found_.load(std::memory_order_relaxed)) return std::nullopt;
  return MineResult{winner_.load(std::memory_order_relaxed), combined};
}

}  // namespace biot::consensus
