// Tip selection strategies.
//
// Honest nodes pick two unverified tips (uniformly, or by the IOTA-style
// weighted MCMC walk that biases toward the heavy part of the tangle and
// starves lazy tips). The LazyTipSelector models the "lazy tips" attack from
// the paper's threat model: always approving a fixed pair of old
// transactions instead of contributing fresh validations.
#pragma once

#include <memory>
#include <utility>

#include "common/rng.h"
#include "tangle/tangle.h"

namespace biot::tangle {

using TipPair = std::pair<TxId, TxId>;

class TipSelector {
 public:
  virtual ~TipSelector() = default;
  virtual TipPair select(const Tangle& tangle, Rng& rng) const = 0;

  /// DAG edges traversed by the most recent select() call — the cost driver
  /// of walk-based strategies, exported as gateway.g<i>.tips.walk_steps.
  /// 0 for strategies that don't walk (uniform, lazy).
  virtual std::size_t last_walk_steps() const { return 0; }
};

/// Uniform random choice among current tips. The paper's two-tip approval
/// model wants two *distinct* validations, so when the pool has at least two
/// tips the pair is drawn without replacement; with a single tip both slots
/// return it (as in IOTA trunk == branch).
class UniformRandomTipSelector final : public TipSelector {
 public:
  TipPair select(const Tangle& tangle, Rng& rng) const override;
};

/// IOTA-style alpha-weighted Markov-chain walk from genesis toward the tips.
/// At each step the walker moves to approver `a` with probability
/// proportional to exp(alpha * w(a)), where w is the exact cumulative weight
/// the tangle maintains on add (Tangle::cumulative_weight, an O(1) lookup).
/// alpha = 0 degenerates to an unweighted walk; larger alpha concentrates on
/// the main tangle and abandons lazy side-branches.
class WeightedWalkTipSelector final : public TipSelector {
 public:
  explicit WeightedWalkTipSelector(double alpha) : alpha_(alpha) {}
  TipPair select(const Tangle& tangle, Rng& rng) const override;

  /// Edges traversed by both walks of the last select().
  std::size_t last_walk_steps() const override { return last_walk_steps_; }

  /// One walk from `start` toward the tips. Defensive against bad inputs:
  /// an id unknown to `tangle` (or a walk stepping onto one) falls back to
  /// an arbitrary current tip.
  TxId walk(const Tangle& tangle, const TxId& start, Rng& rng) const;

 private:
  double alpha_;
  mutable std::size_t last_walk_steps_ = 0;
};

/// Malicious: always approves the same fixed (old) pair of transactions.
class LazyTipSelector final : public TipSelector {
 public:
  LazyTipSelector(TxId fixed1, TxId fixed2)
      : fixed_(std::move(fixed1), std::move(fixed2)) {}
  TipPair select(const Tangle&, Rng&) const override { return fixed_; }

 private:
  TipPair fixed_;
};

}  // namespace biot::tangle
