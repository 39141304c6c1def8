// Randomized end-to-end property sweeps: across seeds, device counts, loss
// rates and attack mixes, the system-wide invariants must hold.
#include <gtest/gtest.h>

#include "factory/scenario.h"

namespace biot::factory {
namespace {

struct SweepParams {
  std::uint64_t seed;
  int devices;
  double loss;
  bool attacks;
  bool coordinator;
};

std::string param_name(const ::testing::TestParamInfo<SweepParams>& info) {
  const auto& p = info.param;
  std::string name = "seed" + std::to_string(p.seed) + "_dev" +
                     std::to_string(p.devices);
  if (p.loss > 0) name += "_lossy";
  if (p.attacks) name += "_attacked";
  if (p.coordinator) name += "_coord";
  return name;
}

// gtest_discover_tests names each ctest entry after the printed parameter;
// the default printer would dump the struct's bytes, padding included.
void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << param_name(::testing::TestParamInfo<SweepParams>(p, 0));
}

class ScenarioSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(ScenarioSweep, SystemInvariantsHold) {
  const auto& p = GetParam();

  ScenarioConfig config;
  config.seed = p.seed;
  config.num_devices = p.devices;
  config.num_gateways = 2;
  config.distribute_keys = true;
  config.enable_coordinator = p.coordinator;
  config.milestone_interval = 4.0;
  config.gateway.sync_interval = 3.0;  // heals lossy gossip
  config.gateway.credit.initial_difficulty = 4;
  config.gateway.credit.max_difficulty = 8;
  config.device.collect_interval = 0.5;
  config.device.profile.hash_rate_hz = 1e6;

  SmartFactory factory(config);
  factory.bootstrap();
  if (p.loss > 0) factory.network().set_loss_rate(p.loss);
  if (p.attacks) {
    factory.device(1).schedule_attack(5.0, node::AttackKind::kDoubleSpend);
    factory.device(1).schedule_attack(15.0, node::AttackKind::kLazyTips);
  }
  factory.run_until(30.0);
  factory.network().set_loss_rate(0.0);  // let anti-entropy finish the job
  factory.run_until(45.0);

  // --- Invariant 1: every attached transaction is fully valid. ------------
  const auto authorized_or_system =
      [&](const tangle::Transaction& tx) {
        if (tx.type == tangle::TxType::kGenesis) return true;
        const auto& auth = factory.gateway(0).auth_registry();
        if (auth.is_manager(tx.sender)) return true;
        if (tx.type == tangle::TxType::kMilestone) return true;  // checked below
        return auth.is_authorized(tx.sender);
      };
  const auto& tangle0 = factory.gateway(0).tangle();
  for (const auto& id : tangle0.arrival_order()) {
    const auto* rec = tangle0.find(id);
    if (rec->tx.type == tangle::TxType::kGenesis) continue;
    EXPECT_TRUE(rec->tx.signature_valid()) << id.hex();
    EXPECT_TRUE(tangle::pow_valid(rec->tx)) << id.hex();
    EXPECT_TRUE(authorized_or_system(rec->tx)) << id.hex();
    EXPECT_TRUE(tangle0.contains(rec->tx.parent1));
    EXPECT_TRUE(tangle0.contains(rec->tx.parent2));
  }

  // --- Invariant 2: replicas converge (anti-entropy closes gossip gaps). --
  ASSERT_EQ(factory.gateway(0).tangle().size(),
            factory.gateway(1).tangle().size());
  for (const auto& id : tangle0.arrival_order())
    EXPECT_TRUE(factory.gateway(1).tangle().contains(id));

  // --- Invariant 3: no duplicate (sender, sequence) slot on any replica. --
  for (std::size_t g = 0; g < factory.gateway_count(); ++g) {
    std::set<std::pair<tangle::AccountKey, std::uint64_t>> slots;
    const auto& t = factory.gateway(g).tangle();
    for (const auto& id : t.arrival_order()) {
      const auto* rec = t.find(id);
      if (rec->tx.type == tangle::TxType::kGenesis) continue;
      EXPECT_TRUE(slots.emplace(rec->tx.sender, rec->tx.sequence).second)
          << "double-spend slipped through on gateway " << g;
    }
  }

  // --- Invariant 4: difficulty policy stays within bounds. -----------------
  for (std::size_t d = 0; d < factory.device_count(); ++d) {
    const int difficulty = factory.gateway(0).required_difficulty(
        factory.device(d).public_identity().sign_key);
    EXPECT_GE(difficulty, config.gateway.credit.min_difficulty);
    EXPECT_LE(difficulty, config.gateway.credit.max_difficulty);
  }

  // --- Invariant 5: progress. Honest devices always get work through. ------
  EXPECT_GT(factory.device(0).stats().accepted, 10u);

  // --- Invariant 6: determinism — a re-run with the same config matches. ---
  SmartFactory replay(config);
  replay.bootstrap();
  if (p.loss > 0) replay.network().set_loss_rate(p.loss);
  if (p.attacks) {
    replay.device(1).schedule_attack(5.0, node::AttackKind::kDoubleSpend);
    replay.device(1).schedule_attack(15.0, node::AttackKind::kLazyTips);
  }
  replay.run_until(30.0);
  replay.network().set_loss_rate(0.0);
  replay.run_until(45.0);
  EXPECT_EQ(replay.gateway(0).tangle().size(), tangle0.size());
  EXPECT_EQ(replay.total_accepted(), factory.total_accepted());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScenarioSweep,
    ::testing::Values(SweepParams{1, 4, 0.0, false, false},
                      SweepParams{2, 4, 0.0, true, false},
                      SweepParams{3, 6, 0.05, false, false},
                      SweepParams{4, 6, 0.05, true, true},
                      SweepParams{5, 2, 0.0, false, true},
                      SweepParams{6, 8, 0.02, true, false}),
    param_name);

}  // namespace
}  // namespace biot::factory
