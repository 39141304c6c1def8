// Credit-based PoW mechanism — the paper's core contribution (Section IV-B).
//
// Each node i carries a credit value
//
//     Cr_i = lambda1 * CrP_i + lambda2 * CrN_i                      (Eqn 2)
//     CrP_i = sum_{k=1..n_i} w_k / dT                               (Eqn 3)
//     CrN_i = - sum_{k=1..m_i} alpha(B) * dT / (t - t_k)            (Eqn 4)
//     alpha(B) = alpha_l (lazy tips) | alpha_d (double-spending)    (Eqn 5)
//
// where w_k is the weight (validation count) of the node's k-th valid
// transaction inside the latest dT window, and t_k the time of its k-th
// malicious behaviour. PoW difficulty is inversely proportional to credit
// (Cr ∝ 1/D), so honest activity lowers the difficulty while each detected
// attack spikes it toward the maximum.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "tangle/transaction.h"

namespace biot::consensus {

/// Malicious behaviours the mechanism punishes. Lazy tips and double-spends
/// are the paper's threat model (Section III); poor data quality is our
/// implementation of the paper's future-work extension (Section VIII) —
/// persistent garbage readings are punished through the same Eqn 4/5 path.
enum class Behaviour : std::uint8_t {
  kLazyTips = 0,
  kDoubleSpend = 1,
  kPoorQuality = 2,
};

std::string_view behaviour_name(Behaviour b) noexcept;

/// Tunable parameters; defaults are the paper's evaluation settings
/// (Section VI-A): lambda1 = 1, lambda2 = 0.5, dT = 30 s, alpha_l = 0.5,
/// alpha_d = 1, difficulty range 1..14 with initial difficulty 11.
struct CreditParams {
  double lambda1 = 1.0;
  double lambda2 = 0.5;
  double delta_t = 30.0;        // seconds
  double alpha_lazy = 0.5;
  double alpha_double = 1.0;
  double alpha_quality = 0.25;  // future-work extension: bad-data penalty
  double min_elapsed = 0.5;     // clamps Eqn 4's divisor near t == t_k
  int initial_difficulty = 11;  // D for nodes with zero credit history
  int min_difficulty = 1;
  int max_difficulty = 14;
  /// Credit at which difficulty equals initial_difficulty; honest steady
  /// state sits above this, pushing D below the initial value (Fig 9).
  double reference_credit = 1.0;
  /// Bits of difficulty removed per doubling of credit (see
  /// CreditModel::difficulty): expected PoW work scales as Cr^-slope.
  double difficulty_slope = 2.0;
  /// Bits of difficulty added per unit of credit *below* the reference
  /// (the punishment ramp; reached from Eqn 4's negative spike).
  double penalty_gain = 1.5;

  double alpha(Behaviour b) const {
    switch (b) {
      case Behaviour::kLazyTips: return alpha_lazy;
      case Behaviour::kDoubleSpend: return alpha_double;
      case Behaviour::kPoorQuality: return alpha_quality;
    }
    return alpha_double;
  }
};

/// Maps TxId -> current weight (validation count). Supplied by the gateway,
/// typically backed by tangle::Tangle::cumulative_weight.
using WeightOracle = std::function<double(const tangle::TxId&)>;

/// Credit state for a single node.
class CreditModel {
 public:
  explicit CreditModel(CreditParams params = {}) : params_(params) {}

  /// Records an accepted transaction from this node.
  void record_valid_tx(const tangle::TxId& id, TimePoint t);
  /// Records a detected malicious behaviour.
  void record_malicious(Behaviour b, TimePoint t);

  /// Eqn 3: activity inside the latest dT window, weighted by validations.
  double positive_credit(TimePoint now, const WeightOracle& weight_of) const;
  /// Eqn 4: decaying penalty over all recorded malicious behaviours.
  double negative_credit(TimePoint now) const;
  /// Eqn 2.
  double credit(TimePoint now, const WeightOracle& weight_of) const;

  /// Difficulty from credit. The paper states Cr ∝ 1/D; since the *work* a
  /// difficulty demands is 2^D, we realize the inverse proportionality on
  /// work above the reference point, and ramp punishment linearly below it
  /// (matching Fig 8, where the node resumes its normal rate while Cr is
  /// still slightly negative):
  ///
  ///   Cr >= Cr_ref:  D = D_init - slope * log2(Cr / Cr_ref)     (reward)
  ///   Cr <  Cr_ref:  D = D_init + penalty_gain * (Cr_ref - Cr)  (punish)
  ///
  /// both clamped to [min_difficulty, upper], where upper is D_init for
  /// nodes with no malicious record (honest-but-idle nodes are never pushed
  /// beyond the baseline) and D_max for detected attackers. A fresh Eqn 4
  /// spike (Cr ~ -lambda2*alpha*dT/min_elapsed) lands on D_max; as the
  /// penalty decays hyperbolically, D descends continuously back to normal.
  int difficulty(TimePoint now, const WeightOracle& weight_of) const;

  std::size_t malicious_count() const { return malicious_.size(); }
  std::size_t valid_tx_count() const { return valid_.size(); }
  const CreditParams& params() const { return params_; }

 private:
  struct ValidTx {
    tangle::TxId id;
    TimePoint time;
  };
  struct Offence {
    Behaviour behaviour;
    TimePoint time;
  };

  CreditParams params_;
  std::deque<ValidTx> valid_;      // pruned below now - dT lazily
  std::vector<Offence> malicious_; // never pruned: the impact decays but
                                   // is never fully eliminated (Section IV-B)
};

/// Per-account credit registry shared by gateways. Accounts appear on first
/// touch with an empty history (credit 0 -> initial difficulty).
class CreditRegistry {
 public:
  explicit CreditRegistry(CreditParams params = {}) : params_(params) {}

  void record_valid_tx(const tangle::AccountKey& node, const tangle::TxId& id,
                       TimePoint t) {
    model(node).record_valid_tx(id, t);
  }
  void record_malicious(const tangle::AccountKey& node, Behaviour b, TimePoint t) {
    model(node).record_malicious(b, t);
  }

  double credit(const tangle::AccountKey& node, TimePoint now,
                const WeightOracle& weight_of) const;
  int difficulty(const tangle::AccountKey& node, TimePoint now,
                 const WeightOracle& weight_of) const;

  const CreditParams& params() const { return params_; }
  /// Direct access (creates the model if absent).
  CreditModel& model(const tangle::AccountKey& node);
  const CreditModel* find(const tangle::AccountKey& node) const;

 private:
  CreditParams params_;
  std::unordered_map<tangle::AccountKey, CreditModel, FixedBytesHash<32>> models_;
};

}  // namespace biot::consensus
