// Core-contribution tests: PoW miner, credit model (Eqns 2-5), difficulty
// mapping, lazy-tip detector and difficulty policies.
#include <gtest/gtest.h>

#include <cmath>

#include "consensus/credit.h"
#include "consensus/detectors.h"
#include "consensus/policy.h"
#include "consensus/pow.h"
#include "test_util.h"

namespace biot::consensus {
namespace {

using tangle::Tangle;
using tangle::TxId;
using testutil::TxFactory;

// ---- Miner -------------------------------------------------------------------

TEST(Miner, FindsValidNonce) {
  Miner miner;
  TxId p1{}, p2{};
  p1[0] = 1;
  const auto result = miner.mine(p1, p2, 8);
  ASSERT_TRUE(result);
  EXPECT_GE(tangle::leading_zero_bits(tangle::pow_output(p1, p2, result->nonce)),
            8);
}

TEST(Miner, AttemptsTrackTotals) {
  Miner miner;
  TxId p{};
  const auto r1 = miner.mine(p, p, 4);
  const auto r2 = miner.mine(p, p, 4);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(miner.total_attempts(), r1->attempts + r2->attempts);
}

TEST(Miner, RespectsMaxAttempts) {
  Miner miner(0, 4);  // at most 4 attempts
  TxId p{};
  // Difficulty 50 is unreachable in 4 attempts (overwhelming probability).
  EXPECT_FALSE(miner.mine(p, p, 50));
}

TEST(Miner, HigherDifficultyNeedsGeometricallyMoreWork) {
  // Statistical sanity: average attempts at D=10 should exceed D=4 clearly.
  TxId p1{}, p2{};
  Miner miner;
  std::uint64_t attempts4 = 0, attempts10 = 0;
  for (int i = 0; i < 30; ++i) {
    p1[1] = static_cast<std::uint8_t>(i);
    attempts4 += miner.mine(p1, p2, 4)->attempts;
    attempts10 += miner.mine(p1, p2, 10)->attempts;
  }
  EXPECT_GT(attempts10, attempts4 * 4);
}

TEST(Miner, DifferentStartNoncesFindValidSolutions) {
  TxId p{};
  Miner a(0), b(1u << 20);
  const auto ra = a.mine(p, p, 6);
  const auto rb = b.mine(p, p, 6);
  ASSERT_TRUE(ra && rb);
  EXPECT_TRUE(tangle::leading_zero_bits(tangle::pow_output(p, p, ra->nonce)) >= 6);
  EXPECT_TRUE(tangle::leading_zero_bits(tangle::pow_output(p, p, rb->nonce)) >= 6);
}

// ---- ParallelMiner ----------------------------------------------------------

TEST(ParallelMiner, FindsValidNonceAcrossThreadCounts) {
  TxId p1{}, p2{};
  p1[0] = 7;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelMiner miner(threads);
    EXPECT_EQ(miner.thread_count(), threads);
    const auto result = miner.mine(p1, p2, 10);
    ASSERT_TRUE(result);
    EXPECT_GE(
        tangle::leading_zero_bits(tangle::pow_output(p1, p2, result->nonce)),
        10);
    EXPECT_GE(result->attempts, 1u);
  }
}

TEST(ParallelMiner, AttemptsAccountingStaysExact) {
  ParallelMiner miner(4);
  TxId p{};
  const auto r1 = miner.mine(p, p, 6);
  const auto r2 = miner.mine(p, p, 6);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(miner.total_attempts(), r1->attempts + r2->attempts);
}

TEST(ParallelMiner, RespectsMaxAttempts) {
  // Difficulty 255 is unattainable; the bounded search must give up after
  // roughly the combined budget (rounded up to the thread count).
  ParallelMiner miner(4, 0, 64);
  TxId p{};
  const auto result = miner.mine(p, p, 255);
  EXPECT_FALSE(result);
  EXPECT_GE(miner.total_attempts(), 64u);
  EXPECT_LE(miner.total_attempts(), 64u + 4u);
}

TEST(ParallelMiner, ZeroThreadsPicksHardwareConcurrency) {
  ParallelMiner miner(0);
  EXPECT_GE(miner.thread_count(), 1u);
}

TEST(ParallelMiner, GrindPassesTheLockRankChecker) {
  // The grind fans out through a TaskGroup on the miner's private pool:
  // group (rank 10) and queue (rank 20) locks are never nested out of
  // order, and no shard waits on its own pool, so back-to-back searches
  // run clean with rank checking armed.
  const bool was_checking = sync::lock_rank_checking();
  sync::set_lock_rank_checking(true);
  ParallelMiner miner(4);
  TxId p{};
  for (int i = 0; i < 16; ++i) {
    p[0] = static_cast<std::uint8_t>(i);
    ASSERT_TRUE(miner.mine(p, p, 6));
  }
  sync::set_lock_rank_checking(was_checking);
}

TEST(ParallelMiner, MatchesSerialMinerWorkDistribution) {
  // Parallel search at difficulty D should need attempts of the same order
  // as the serial miner (mean 2^D); verify the proxy stays comparable.
  TxId p1{}, p2{};
  p1[0] = 3;
  Miner serial;
  ParallelMiner parallel(4);
  std::uint64_t serial_attempts = 0, parallel_attempts = 0;
  for (int i = 0; i < 8; ++i) {
    p2[1] = static_cast<std::uint8_t>(i);
    serial_attempts += serial.mine(p1, p2, 8)->attempts;
    parallel_attempts += parallel.mine(p1, p2, 8)->attempts;
  }
  // Very loose factor-8 band: both are geometric with mean 2^8 per search.
  EXPECT_GT(parallel_attempts, serial_attempts / 8);
  EXPECT_LT(parallel_attempts, serial_attempts * 8);
}

// ---- Wedge + midstate regressions -------------------------------------------

TEST(Miner, ImpossibleDifficultyReturnsImmediately) {
  // Regression: difficulty > 256 can never be satisfied by a 256-bit digest;
  // with max_attempts == 0 (unbounded) the old loop spun forever. Both
  // miners must bail out before doing any work.
  Miner miner;  // unbounded
  TxId p1{}, p2{};
  EXPECT_FALSE(miner.mine(p1, p2, kMaxPowDifficulty + 1).has_value());
  EXPECT_FALSE(miner.mine(p1, p2, 10000).has_value());
  EXPECT_EQ(miner.total_attempts(), 0u);

  ParallelMiner parallel(4);  // unbounded
  EXPECT_FALSE(parallel.mine(p1, p2, kMaxPowDifficulty + 1).has_value());
  EXPECT_EQ(parallel.total_attempts(), 0u);
}

TEST(Miner, MaxDifficultyItselfStillSearches) {
  // 256 is astronomically hard but not structurally impossible: a bounded
  // miner must search its budget, not refuse up front.
  Miner miner(0, 8);
  TxId p1{}, p2{};
  EXPECT_FALSE(miner.mine(p1, p2, kMaxPowDifficulty).has_value());
  EXPECT_EQ(miner.total_attempts(), 8u);
}

TEST(Pow, MidstateMatchesPowOutput) {
  // PowMidstate::output / output_many are the miner's hot path; both must
  // agree byte-for-byte with the reference pow_output (Eqn 6).
  TxId p1{}, p2{};
  p1[0] = 0xab;
  p2[31] = 0xcd;
  const tangle::PowMidstate mid(p1, p2);
  for (const std::uint64_t nonce :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
        std::uint64_t{0xffffffffull}, ~std::uint64_t{0}}) {
    EXPECT_EQ(mid.output(nonce), tangle::pow_output(p1, p2, nonce))
        << "nonce=" << nonce;
  }
  crypto::Sha256Digest many[13];
  mid.output_many(1000, 13, many);
  for (std::uint64_t i = 0; i < 13; ++i)
    EXPECT_EQ(many[i], tangle::pow_output(p1, p2, 1000 + i)) << i;
}

TEST(Pow, CountersTrackOneBlockPerAttempt) {
  // With the midstate cached, grinding costs ~1 compression per nonce
  // (plus 1 for the prefix per mine() call) instead of 2.
  auto& counters = pow_counters();
  const std::uint64_t attempts0 = counters.attempts;
  const std::uint64_t blocks0 = counters.sha_blocks;
  Miner miner;
  TxId p1{}, p2{};
  p1[0] = 9;
  ASSERT_TRUE(miner.mine(p1, p2, 4).has_value());
  const std::uint64_t attempts = counters.attempts - attempts0;
  const std::uint64_t blocks = counters.sha_blocks - blocks0;
  EXPECT_GE(attempts, 1u);
  // blocks = attempts rounded up to the lane stride, + 1 prefix compression.
  EXPECT_GE(blocks, attempts);
  EXPECT_LE(blocks, attempts + crypto::kSha256MaxLanes + 1);
}

// ---- Credit model --------------------------------------------------------------

WeightOracle unit_weights() {
  return [](const TxId&) { return 1.0; };
}

TxId make_id(std::uint8_t tag) {
  TxId id{};
  id[0] = tag;
  return id;
}

TEST(Credit, EmptyHistoryHasZeroCredit) {
  CreditModel m;
  EXPECT_EQ(m.credit(100.0, unit_weights()), 0.0);
}

TEST(Credit, PositiveCreditMatchesEqn3) {
  CreditParams p;
  p.delta_t = 30.0;
  CreditModel m(p);
  // Three transactions inside the window with weights 2, 3, 5.
  m.record_valid_tx(make_id(1), 80.0);
  m.record_valid_tx(make_id(2), 90.0);
  m.record_valid_tx(make_id(3), 99.0);
  const WeightOracle weights = [](const TxId& id) {
    switch (id[0]) {
      case 1: return 2.0;
      case 2: return 3.0;
      default: return 5.0;
    }
  };
  EXPECT_DOUBLE_EQ(m.positive_credit(100.0, weights), (2.0 + 3.0 + 5.0) / 30.0);
}

TEST(Credit, WindowExcludesOldTransactions) {
  CreditParams p;
  p.delta_t = 30.0;
  CreditModel m(p);
  m.record_valid_tx(make_id(1), 10.0);   // outside window at t=100
  m.record_valid_tx(make_id(2), 95.0);   // inside
  EXPECT_DOUBLE_EQ(m.positive_credit(100.0, unit_weights()), 1.0 / 30.0);
}

TEST(Credit, InactiveNodeDecaysToZeroPositiveCredit) {
  CreditModel m;
  m.record_valid_tx(make_id(1), 10.0);
  EXPECT_GT(m.positive_credit(11.0, unit_weights()), 0.0);
  EXPECT_EQ(m.positive_credit(100.0, unit_weights()), 0.0);
}

TEST(Credit, NegativeCreditMatchesEqn4) {
  CreditParams p;
  p.delta_t = 30.0;
  p.alpha_lazy = 0.5;
  p.alpha_double = 1.0;
  CreditModel m(p);
  m.record_malicious(Behaviour::kLazyTips, 10.0);
  m.record_malicious(Behaviour::kDoubleSpend, 20.0);
  // At t = 40: lazy term 0.5*30/30 = 0.5, double term 1*30/20 = 1.5.
  EXPECT_DOUBLE_EQ(m.negative_credit(40.0), -(0.5 + 1.5));
}

TEST(Credit, FreshOffenceClampsDivisor) {
  CreditParams p;
  p.min_elapsed = 0.5;
  CreditModel m(p);
  m.record_malicious(Behaviour::kLazyTips, 50.0);
  // Immediately after: divisor clamped to 0.5 -> 0.5*30/0.5 = 30.
  EXPECT_DOUBLE_EQ(m.negative_credit(50.0), -30.0);
}

TEST(Credit, PenaltyDecaysButNeverVanishes) {
  CreditModel m;
  m.record_malicious(Behaviour::kDoubleSpend, 0.0);
  const double early = m.negative_credit(1.0);
  const double later = m.negative_credit(1000.0);
  EXPECT_LT(early, later);  // both negative; later is closer to 0
  EXPECT_LT(later, 0.0);    // the impact cannot be eliminated (Section IV-B)
}

TEST(Credit, CombinedCreditUsesLambdas) {
  CreditParams p;
  p.lambda1 = 1.0;
  p.lambda2 = 0.5;
  p.delta_t = 30.0;
  CreditModel m(p);
  m.record_valid_tx(make_id(1), 99.0);
  m.record_malicious(Behaviour::kLazyTips, 70.0);
  const double crp = m.positive_credit(100.0, unit_weights());
  const double crn = m.negative_credit(100.0);
  EXPECT_DOUBLE_EQ(m.credit(100.0, unit_weights()), crp + 0.5 * crn);
}

TEST(Credit, StricterLambda2PunishesHarder) {
  CreditParams strict;
  strict.lambda2 = 2.0;
  CreditParams lax;
  lax.lambda2 = 0.1;
  CreditModel ms(strict), ml(lax);
  for (auto* m : {&ms, &ml}) {
    m->record_valid_tx(make_id(1), 99.0);
    m->record_malicious(Behaviour::kDoubleSpend, 95.0);
  }
  EXPECT_LT(ms.credit(100.0, unit_weights()), ml.credit(100.0, unit_weights()));
}

// ---- Difficulty mapping ---------------------------------------------------------

TEST(Difficulty, NewNodeGetsInitialDifficulty) {
  CreditModel m;
  EXPECT_EQ(m.difficulty(0.0, unit_weights()), m.params().initial_difficulty);
}

TEST(Difficulty, ActiveHonestNodeGetsEasierPow) {
  CreditParams p;  // defaults: dT = 30, ref credit 4, initial 11
  CreditModel m(p);
  // Strong honest activity: 30 txs of weight 6 inside the window.
  for (int i = 0; i < 30; ++i) m.record_valid_tx(make_id(1), 70.0 + i);
  const WeightOracle w6 = [](const TxId&) { return 6.0; };
  const int d = m.difficulty(100.0, w6);
  EXPECT_LT(d, p.initial_difficulty);
  EXPECT_GE(d, p.min_difficulty);
}

TEST(Difficulty, HonestNodeNeverExceedsInitial) {
  CreditParams p;
  CreditModel m(p);
  m.record_valid_tx(make_id(1), 99.0);  // tiny activity -> tiny credit
  EXPECT_LE(m.difficulty(100.0, unit_weights()), p.initial_difficulty);
}

TEST(Difficulty, AttackerJumpsToMaximum) {
  CreditParams p;
  CreditModel m(p);
  for (int i = 0; i < 10; ++i) m.record_valid_tx(make_id(1), 90.0 + i);
  m.record_malicious(Behaviour::kDoubleSpend, 99.9);
  EXPECT_EQ(m.difficulty(100.0, unit_weights()), p.max_difficulty);
}

TEST(Difficulty, AttackerRecoversGradually) {
  CreditParams p;
  CreditModel m(p);
  m.record_malicious(Behaviour::kLazyTips, 100.0);
  const int right_after = m.difficulty(100.5, unit_weights());
  EXPECT_EQ(right_after, p.max_difficulty);

  // Keep submitting honestly; difficulty should fall once credit recovers.
  for (int i = 0; i < 200; ++i) m.record_valid_tx(make_id(2), 100.0 + i);
  const WeightOracle w4 = [](const TxId&) { return 4.0; };
  const int later = m.difficulty(300.0, w4);
  EXPECT_LT(later, p.max_difficulty);
}

TEST(Difficulty, MonotoneInCredit) {
  // Sanity: more weight in window -> no harder difficulty.
  CreditParams p;
  CreditModel m(p);
  for (int i = 0; i < 10; ++i) m.record_valid_tx(make_id(1), 95.0);
  const WeightOracle w2 = [](const TxId&) { return 2.0; };
  const WeightOracle w8 = [](const TxId&) { return 8.0; };
  EXPECT_GE(m.difficulty(100.0, w2), m.difficulty(100.0, w8));
}

TEST(Registry, UnknownAccountGetsDefaults) {
  CreditRegistry reg;
  tangle::AccountKey key{};
  key[0] = 9;
  EXPECT_EQ(reg.credit(key, 0.0, unit_weights()), 0.0);
  EXPECT_EQ(reg.difficulty(key, 0.0, unit_weights()),
            reg.params().initial_difficulty);
}

TEST(Registry, TracksPerAccountIndependently) {
  CreditRegistry reg;
  tangle::AccountKey honest{}, attacker{};
  honest[0] = 1;
  attacker[0] = 2;
  reg.record_valid_tx(honest, make_id(1), 99.0);
  reg.record_malicious(attacker, Behaviour::kDoubleSpend, 99.0);
  EXPECT_GT(reg.credit(honest, 100.0, unit_weights()),
            reg.credit(attacker, 100.0, unit_weights()));
  EXPECT_EQ(reg.difficulty(attacker, 100.0, unit_weights()),
            reg.params().max_difficulty);
}

// ---- Lazy detector ----------------------------------------------------------------

class LazyDetectorTest : public ::testing::Test {
 protected:
  LazyDetectorTest() : tangle_(Tangle::make_genesis()), node_(1) {}

  TxId attach(const TxId& p1, const TxId& p2, TimePoint t) {
    const auto tx = node_.make(p1, p2, 2, {}, t);
    EXPECT_TRUE(tangle_.add(tx, t).is_ok());
    return tx.id();
  }

  Tangle tangle_;
  TxFactory node_;
  LazyTipPolicy policy_;  // max age 20 s, require approved
};

TEST_F(LazyDetectorTest, FreshTipsAreNotLazy) {
  const auto g = tangle_.genesis_id();
  const auto a = attach(g, g, 1.0);
  const auto tx = node_.make(a, a, 2, {}, 2.0);
  EXPECT_FALSE(is_lazy_approval(tangle_, tx, 2.0, policy_));
}

TEST_F(LazyDetectorTest, OldApprovedParentsAreLazy) {
  const auto g = tangle_.genesis_id();
  const auto old1 = attach(g, g, 0.0);
  const auto old2 = attach(g, g, 0.0);
  attach(old1, old2, 1.0);  // both old parents now approved
  const auto tx = node_.make(old1, old2, 2, {}, 60.0);
  EXPECT_TRUE(is_lazy_approval(tangle_, tx, 60.0, policy_));
}

TEST_F(LazyDetectorTest, OldButUnapprovedParentIsNotLazy) {
  // A genuinely old tip that nobody approved: slow network, not an attack.
  const auto g = tangle_.genesis_id();
  const auto lonely = attach(g, g, 0.0);
  const auto tx = node_.make(lonely, lonely, 2, {}, 60.0);
  EXPECT_FALSE(is_lazy_approval(tangle_, tx, 60.0, policy_));
}

TEST_F(LazyDetectorTest, OneFreshParentIsNotLazy) {
  const auto g = tangle_.genesis_id();
  const auto old1 = attach(g, g, 0.0);
  const auto old2 = attach(g, g, 0.0);
  attach(old1, old2, 1.0);
  const auto fresh = attach(old1, old2, 59.5);
  const auto tx = node_.make(old1, fresh, 2, {}, 60.0);
  EXPECT_FALSE(is_lazy_approval(tangle_, tx, 60.0, policy_));
}

TEST_F(LazyDetectorTest, ApprovalThatRacedInRecentlyIsNotLazy) {
  // Post-outage shape: the only tips in the tangle are old, and a
  // concurrent submitter approved them moments before us. Losing that race
  // is a timing accident, not a lazy choice — but once the approval has
  // stood for the grace window, the same parents ARE a lazy choice.
  const auto g = tangle_.genesis_id();
  const auto old1 = attach(g, g, 0.0);
  const auto old2 = attach(g, g, 0.0);
  attach(old1, old2, 59.0);  // raced in 1 s before our submission
  const auto tx = node_.make(old1, old2, 2, {}, 60.0);
  EXPECT_FALSE(is_lazy_approval(tangle_, tx, 60.0, policy_));
  EXPECT_TRUE(is_lazy_approval(tangle_, tx, 66.0, policy_));
}

TEST_F(LazyDetectorTest, PolicyAgeIsRespected) {
  const auto g = tangle_.genesis_id();
  const auto old1 = attach(g, g, 0.0);
  const auto old2 = attach(g, g, 0.0);
  attach(old1, old2, 1.0);
  LazyTipPolicy lenient;
  lenient.max_parent_age = 1000.0;
  const auto tx = node_.make(old1, old2, 2, {}, 60.0);
  EXPECT_FALSE(is_lazy_approval(tangle_, tx, 60.0, lenient));
}

// ---- Policies ---------------------------------------------------------------------

TEST(Policy, FixedReturnsConstant) {
  FixedDifficultyPolicy policy(11);
  tangle::AccountKey any{};
  EXPECT_EQ(policy.required_difficulty(any, 0.0, unit_weights()), 11);
  EXPECT_EQ(policy.required_difficulty(any, 1e6, unit_weights()), 11);
}

TEST(Policy, CreditPolicyFollowsRegistry) {
  CreditRegistry reg;
  CreditDifficultyPolicy policy(reg);
  tangle::AccountKey attacker{};
  attacker[0] = 5;
  EXPECT_EQ(policy.required_difficulty(attacker, 100.0, unit_weights()),
            reg.params().initial_difficulty);
  reg.record_malicious(attacker, Behaviour::kDoubleSpend, 99.0);
  EXPECT_EQ(policy.required_difficulty(attacker, 100.0, unit_weights()),
            reg.params().max_difficulty);
}

// Parameter sweep: the paper tunes alpha per behaviour (Eqn 5); verify the
// punishment coefficient scales the penalty.
class AlphaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweepTest, PenaltyScalesWithAlpha) {
  CreditParams p;
  p.alpha_double = GetParam();
  CreditModel m(p);
  m.record_malicious(Behaviour::kDoubleSpend, 0.0);
  EXPECT_DOUBLE_EQ(m.negative_credit(10.0), -GetParam() * p.delta_t / 10.0);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace biot::consensus
