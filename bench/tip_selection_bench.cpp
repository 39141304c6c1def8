// Tip-selection ablation: cost and lazy-tip resistance of the strategies.
//
// Background (Section III, "lazy tips"): an attacker inflates the tip pool
// with transactions approving a fixed old pair, hoping honest nodes then
// waste validations on them. The IOTA-style weighted walk starves such
// side-branches; uniform selection falls for them in proportion to their
// share of the tip pool. This bench quantifies both, plus the raw cost per
// selection as the tangle grows.
#include <cstdio>

#include "consensus/pow.h"
#include "crypto/identity.h"
#include "harness.h"
#include "tangle/tip_selection.h"

namespace {
using namespace biot;

struct TestBed {
  tangle::Tangle tangle{tangle::Tangle::make_genesis()};
  crypto::Identity identity = crypto::Identity::deterministic(1);
  consensus::Miner miner;
  std::uint64_t seq = 0;

  tangle::TxId attach(const tangle::TxId& p1, const tangle::TxId& p2,
                      TimePoint t) {
    tangle::Transaction tx;
    tx.type = tangle::TxType::kData;
    tx.sender = identity.public_identity().sign_key;
    tx.parent1 = p1;
    tx.parent2 = p2;
    tx.sequence = seq++;
    tx.timestamp = t;
    tx.difficulty = 1;
    tx.nonce = miner.mine(p1, p2, 1)->nonce;
    tx.signature = identity.sign(tx.signing_bytes());
    if (!tangle.add(tx, t).is_ok()) std::abort();
    return tx.id();
  }
};

// Builds a tangle with `honest` transactions grown by uniform selection and
// `lazy` attacker transactions all approving one fixed ancient pair.
// `stale_pair` receives the pair the attacker keeps re-approving.
TestBed build_infested(int honest, int lazy, Rng& rng,
                       tangle::TipPair* stale_pair = nullptr) {
  TestBed bed;
  const auto g = bed.tangle.genesis_id();
  const auto old1 = bed.attach(g, g, 0.0);
  const auto old2 = bed.attach(g, g, 0.0);
  if (stale_pair != nullptr) *stale_pair = {old1, old2};

  tangle::UniformRandomTipSelector uniform;
  for (int i = 0; i < honest; ++i) {
    const auto [t1, t2] = uniform.select(bed.tangle, rng);
    bed.attach(t1, t2, 1.0 + i * 0.1);
  }
  const double lazy_time = 1.0 + honest * 0.1;
  for (int i = 0; i < lazy; ++i)
    bed.attach(old1, old2, lazy_time + i * 0.01);  // inflate the tip pool
  return bed;
}

void lazy_resistance(bench::Harness& h) {
  std::printf("\n## lazy-tip resistance: fraction of selections landing on "
              "attacker tips\n");
  std::printf("# tangle: 200 honest txs + 100 lazy-attack tips off one stale pair\n");
  std::printf("%-26s %14s\n", "selector", "lazy_fraction");

  Rng build_rng(1);
  tangle::TipPair stale;
  TestBed bed = build_infested(h.scale(200, 60), h.scale(100, 30), build_rng,
                               &stale);

  // Attacker tips are exactly those approving the stale pair.
  std::set<tangle::TxId> lazy_tips;
  for (const auto& tip : bed.tangle.tips()) {
    const auto* rec = bed.tangle.find(tip);
    if (rec->tx.parent1 == stale.first && rec->tx.parent2 == stale.second)
      lazy_tips.insert(tip);
  }
  std::printf("# tip pool: %zu total, %zu lazy (share %.2f)\n",
              bed.tangle.tips().size(), lazy_tips.size(),
              static_cast<double>(lazy_tips.size()) /
                  static_cast<double>(bed.tangle.tips().size()));

  const int trials = h.scale(1000, 200);
  auto measure = [&](const tangle::TipSelector& selector) {
    Rng rng(7);
    int hits = 0;
    for (int i = 0; i < trials; ++i) {
      const auto [t1, t2] = selector.select(bed.tangle, rng);
      if (lazy_tips.contains(t1)) ++hits;
      if (lazy_tips.contains(t2)) ++hits;
    }
    return static_cast<double>(hits) / (2 * trials);
  };

  const tangle::UniformRandomTipSelector uniform;
  const double uniform_frac = measure(uniform);
  std::printf("%-26s %14.3f\n", "uniform", uniform_frac);
  h.record("lazy_fraction.uniform", uniform_frac, "ratio");
  for (const double alpha : {0.0, 0.1, 0.5, 2.0}) {
    const tangle::WeightedWalkTipSelector walk(alpha);
    const double frac = measure(walk);
    char name[32];
    std::snprintf(name, sizeof name, "mcmc-walk alpha=%.1f", alpha);
    std::printf("%-26s %14.3f\n", name, frac);
    if (alpha == 0.5) h.record("lazy_fraction.walk_a0.5", frac, "ratio");
  }
  std::printf("# expected: uniform ~= lazy share of the tip pool; walk "
              "fraction drops toward 0 as alpha grows\n");
}

void selection_cost(bench::Harness& h) {
  std::printf("\n## selection cost vs tangle size (microseconds/selection)\n");
  std::printf("%-10s %14s %14s %18s\n", "txs", "uniform_us", "walk_us",
              "walk_after_write_us");

  for (const int n : h.quick() ? std::vector<int>{100, 500}
                                : std::vector<int>{100, 500, 2000, 8000}) {
    Rng build_rng(2);
    TestBed bed = build_infested(n, 0, build_rng);

    auto time_us = [&](const tangle::TipSelector& selector, int reps) {
      Rng rng(3);
      const obs::WallTimer timer;
      for (int i = 0; i < reps; ++i)
        bench::do_not_optimize(selector.select(bed.tangle, rng));
      return timer.elapsed() * 1e6 / reps;
    };

    const tangle::UniformRandomTipSelector uniform;
    const tangle::WeightedWalkTipSelector walk(0.5);
    const double uniform_us = time_us(uniform, h.scale(200, 50));
    const double walk_us = time_us(walk, h.scale(20, 5));

    // The gateway's real pattern: every select follows an admission that
    // approved the previous pair. Only the select is timed.
    const int write_reps = h.scale(20, 5);
    Rng rng(3);
    double after_write_s = 0.0;
    tangle::TipPair tips = walk.select(bed.tangle, rng);
    for (int i = 0; i < write_reps; ++i) {
      bed.attach(tips.first, tips.second, 1.0 + n * 0.1 + i * 0.01);
      const obs::WallTimer timer;
      tips = walk.select(bed.tangle, rng);
      after_write_s += timer.elapsed();
    }
    const double after_write_us = after_write_s * 1e6 / write_reps;

    std::printf("%-10d %14.2f %14.2f %18.2f\n", n, uniform_us, walk_us,
                after_write_us);
    h.record("select_us.uniform.n" + std::to_string(n), uniform_us, "us/op");
    h.record("select_us.walk.n" + std::to_string(n), walk_us, "us/op");
    h.record("select_us.walk_after_write.n" + std::to_string(n),
             after_write_us, "us/op");
  }
  std::printf("# uniform is O(tips); the walk reads the tangle's exact O(1) "
              "cumulative weights, so a selection costs O(walk length) "
              "whether or not a write just landed\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("tip_selection", argc, argv);
  std::printf("# Tip-selection strategies: lazy-tip resistance and cost\n");
  lazy_resistance(h);
  selection_cost(h);
  return h.finish();
}
