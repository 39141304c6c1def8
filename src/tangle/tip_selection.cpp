#include "tangle/tip_selection.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace biot::tangle {

TipPair UniformRandomTipSelector::select(const Tangle& tangle, Rng& rng) const {
  const auto& tips = tangle.tips();
  if (tips.empty()) throw std::logic_error("tip selection: tangle has no tips");

  std::vector<const TxId*> pool;
  pool.reserve(tips.size());
  for (const auto& t : tips) pool.push_back(&t);

  const std::size_t i = rng.index(pool.size());
  if (pool.size() == 1) return {*pool[i], *pool[i]};
  // Two distinct validations whenever the pool allows it: draw the second
  // index without replacement by skipping over the first.
  const std::size_t j = (i + 1 + rng.index(pool.size() - 1)) % pool.size();
  return {*pool[i], *pool[j]};
}

TxId WeightedWalkTipSelector::walk(const Tangle& tangle, const TxId& start,
                                   Rng& rng) const {
  TxId current = start;
  std::vector<double> cumulative;
  for (;;) {
    const auto* rec = tangle.find(current);
    if (rec == nullptr) {
      // Unknown id (foreign/pruned start, or a corrupted approver edge):
      // degrade to an arbitrary current tip rather than dereferencing null.
      const auto& tips = tangle.tips();
      return tips.empty() ? current : *tips.begin();
    }
    if (rec->approvers.empty()) return current;  // reached a tip

    // Transition probabilities proportional to exp(alpha * w); normalize by
    // the max exponent for numerical stability. Exact weights are integers
    // bounded by the tangle size, so every term is finite and the heaviest
    // approver's is 1: the total never becomes inf or NaN.
    cumulative.clear();
    std::size_t max_w = 0;
    for (const auto& ap : rec->approvers) {
      const std::size_t w = tangle.cumulative_weight(ap);
      max_w = std::max(max_w, w);
      cumulative.push_back(static_cast<double>(w));
    }
    double total = 0.0;
    for (double& c : cumulative) {
      total += std::exp(alpha_ * (c - static_cast<double>(max_w)));
      c = total;
    }

    const double pick = rng.uniform(0.0, total);
    std::size_t idx = 0;
    while (idx + 1 < cumulative.size() && cumulative[idx] <= pick) ++idx;
    current = rec->approvers[idx];
    ++last_walk_steps_;
  }
}

TipPair WeightedWalkTipSelector::select(const Tangle& tangle, Rng& rng) const {
  last_walk_steps_ = 0;  // walk() accumulates across the two walks below
  const auto& start = tangle.genesis_id();
  return {walk(tangle, start, rng), walk(tangle, start, rng)};
}

}  // namespace biot::tangle
