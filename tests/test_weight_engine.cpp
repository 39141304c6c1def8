// Incremental weight engine: property tests proving the incrementally
// maintained cumulative weights and depths agree with the brute-force
// reference sweeps on randomized DAGs, and regression tests for the
// tip-selection correctness fixes (duplicate tip draw, null walk, finite
// walk weights on deep tangles).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "tangle/milestones.h"
#include "tangle/tip_selection.h"
#include "test_util.h"

namespace biot::tangle {
namespace {

using testutil::TxFactory;

// ---- Incremental vs brute force ---------------------------------------------

TEST(WeightEngineProperty, IncrementalMatchesBruteForceOnRandomTangles) {
  // 500+ randomized tangles, each grown by a mix of arbitrary-DAG parent
  // picks (diamonds included) and uniform tip selection at difficulty 1;
  // every transaction's incremental weight and depth must equal the
  // reference sweep exactly.
  for (std::uint64_t seed = 1; seed <= 510; ++seed) {
    Tangle tangle(Tangle::make_genesis());
    TxFactory node(seed);
    Rng rng(seed * 0x9e3779b9ull + 1);
    UniformRandomTipSelector tips;
    const int txs = 5 + static_cast<int>(seed % 28);
    for (int i = 0; i < txs; ++i) {
      TxId p1, p2;
      if (rng.bernoulli(0.5)) {
        const auto& order = tangle.arrival_order();
        p1 = order[rng.index(order.size())];
        p2 = order[rng.index(order.size())];
      } else {
        std::tie(p1, p2) = tips.select(tangle, rng);
      }
      const auto tx = node.make(p1, p2, 1, {}, 0.1 * i);
      ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
    }
    for (const auto& id : tangle.arrival_order()) {
      ASSERT_EQ(tangle.cumulative_weight(id),
                tangle.cumulative_weight_brute_force(id))
          << "weight mismatch, seed " << seed;
      ASSERT_EQ(tangle.depth(id), tangle.depth_brute_force(id))
          << "depth mismatch, seed " << seed;
    }
  }
}

TEST(WeightEngineProperty, AgreementHoldsAfterEveryAdd) {
  // Stronger (but smaller) sweep: check agreement after each individual add,
  // not just at the end — catches ordering bugs in the propagation.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Tangle tangle(Tangle::make_genesis());
    TxFactory node(seed);
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) {
      const auto& order = tangle.arrival_order();
      const auto& p1 = order[rng.index(order.size())];
      const auto& p2 = order[rng.index(order.size())];
      const auto tx = node.make(p1, p2, 1, {}, 0.1 * i);
      ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
      for (const auto& id : tangle.arrival_order()) {
        ASSERT_EQ(tangle.cumulative_weight(id),
                  tangle.cumulative_weight_brute_force(id));
        ASSERT_EQ(tangle.depth(id), tangle.depth_brute_force(id));
      }
    }
  }
}

TEST(WeightEngine, UnknownIdIsZeroForBothImplementations) {
  Tangle tangle(Tangle::make_genesis());
  TxId bogus{};
  bogus[5] = 0xaa;
  EXPECT_EQ(tangle.cumulative_weight(bogus), 0u);
  EXPECT_EQ(tangle.cumulative_weight_brute_force(bogus), 0u);
  EXPECT_EQ(tangle.depth(bogus), 0u);
  EXPECT_EQ(tangle.depth_brute_force(bogus), 0u);
}

// ---- Regression: duplicate-tip fix ------------------------------------------

TEST(TipSelectionRegression, UniformNeverRepeatsWhenTwoTipsExist) {
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  const auto g = tangle.genesis_id();
  for (int i = 0; i < 5; ++i) {
    const auto tx = node.make(g, g, 1);
    ASSERT_TRUE(tangle.add(tx, 0.0).is_ok());
  }
  ASSERT_GE(tangle.tips().size(), 2u);

  UniformRandomTipSelector selector;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const auto [t1, t2] = selector.select(tangle, rng);
    EXPECT_NE(t1, t2) << "duplicate tip drawn with a multi-tip pool";
    EXPECT_TRUE(tangle.is_tip(t1));
    EXPECT_TRUE(tangle.is_tip(t2));
  }
}

TEST(TipSelectionRegression, UniformStillCoversEveryTipPair) {
  // Without-replacement sampling must stay uniform over ordered pairs.
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(2);
  const auto g = tangle.genesis_id();
  std::set<TxId> tip_set;
  for (int i = 0; i < 4; ++i) {
    const auto tx = node.make(g, g, 1);
    ASSERT_TRUE(tangle.add(tx, 0.0).is_ok());
    tip_set.insert(tx.id());
  }
  UniformRandomTipSelector selector;
  Rng rng(5);
  std::set<std::pair<TxId, TxId>> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(selector.select(tangle, rng));
  // 4 tips -> 12 ordered distinct pairs, all reachable.
  EXPECT_EQ(seen.size(), 12u);
}

// ---- Regression: null-walk fix and deep-tangle weights ----------------------

TEST(TipSelectionRegression, WalkFromUnknownIdFallsBackToATip) {
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  const auto g = tangle.genesis_id();
  const auto tx = node.make(g, g, 1);
  ASSERT_TRUE(tangle.add(tx, 0.0).is_ok());

  WeightedWalkTipSelector selector(0.5);
  Rng rng(1);
  TxId foreign{};
  foreign[0] = 0xde;
  foreign[1] = 0xad;
  const auto landed = selector.walk(tangle, foreign, rng);
  EXPECT_TRUE(tangle.is_tip(landed));
}

TEST(TipSelectionRegression, DeepTangleWalkKeepsFiniteTransitionWeights) {
  // A 1,600-tx chain in which each tx approves the previous two. An additive
  // path count grows like Fibonacci here (Fib(1600) > DBL_MAX), so a walk
  // on it saw inf weights and NaN transitions; the exact weight of genesis
  // is just 1,601.
  constexpr int kChain = 1600;
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  TxId newest = tangle.genesis_id();
  TxId older = tangle.genesis_id();
  for (int i = 0; i < kChain; ++i) {
    const auto tx = node.make(newest, older, 1, {}, 0.01 * i);
    ASSERT_TRUE(tangle.add(tx, 0.01 * i).is_ok());
    older = newest;
    newest = tx.id();
  }
  ASSERT_EQ(tangle.cumulative_weight(tangle.genesis_id()), kChain + 1u);
  ASSERT_EQ(tangle.tips(), std::set<TxId>{newest});

  for (const double alpha : {0.5, 5.0}) {
    // Every transition weight the walk draws from is finite and positive.
    for (const auto& id : tangle.arrival_order()) {
      const auto& approvers = tangle.find(id)->approvers;
      std::size_t max_w = 0;
      for (const auto& ap : approvers)
        max_w = std::max(max_w, tangle.cumulative_weight(ap));
      for (const auto& ap : approvers) {
        const double term =
            std::exp(alpha * (static_cast<double>(tangle.cumulative_weight(ap)) -
                              static_cast<double>(max_w)));
        ASSERT_TRUE(std::isfinite(term) && term > 0.0) << "alpha=" << alpha;
      }
    }

    WeightedWalkTipSelector selector(alpha);
    Rng rng(7);
    constexpr int kSelects = 10;
    double steps = 0.0;
    for (int i = 0; i < kSelects; ++i) {
      const auto [t1, t2] = selector.select(tangle, rng);
      EXPECT_EQ(t1, newest) << "alpha=" << alpha;
      EXPECT_EQ(t2, newest) << "alpha=" << alpha;
      steps += static_cast<double>(selector.last_walk_steps());
    }
    // The two approvers of each tx differ by exactly one unit of weight, so
    // a step moves to the next tx with p = e^a / (1 + e^a) and skips one tx
    // otherwise: a walk takes about kChain / (2 - p) steps. A walk on
    // degenerate weights always takes the first approver (kChain steps).
    const double p = std::exp(alpha) / (1.0 + std::exp(alpha));
    const double expected = kChain / (2.0 - p);
    EXPECT_NEAR(steps / (2 * kSelects), expected, 0.05 * expected)
        << "alpha=" << alpha;
  }
}

// ---- Regression: milestone replay -------------------------------------------

TEST(MilestoneRegression, ReplayedMilestoneCountsNothing) {
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  const auto g = tangle.genesis_id();
  const auto a = node.make(g, g, 1);
  ASSERT_TRUE(tangle.add(a, 0.0).is_ok());

  MilestoneTracker tracker;
  EXPECT_EQ(tracker.observe_milestone(tangle, a.id()), 2u);
  EXPECT_EQ(tracker.milestone_count(), 1u);
  // Gossip echo / restore replay of the same milestone: no-op.
  EXPECT_EQ(tracker.observe_milestone(tangle, a.id()), 0u);
  EXPECT_EQ(tracker.milestone_count(), 1u);
  EXPECT_EQ(tracker.confirmed_count(), 2u);
}

}  // namespace
}  // namespace biot::tangle
