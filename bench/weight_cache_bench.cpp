// Incremental weight engine vs brute-force sweeps.
//
// The consensus loop leans entirely on cumulative weight: tip selection
// walks the DAG by weight and confirmation is a weight threshold. The seed
// implementation re-swept the whole DAG on every query (O(n) per call,
// O(n^2) across a run); the tangle now maintains weights/depths
// incrementally on add, so both read paths are O(1) lookups. This bench
// quantifies the win on the confirmation query at growing tangle sizes —
// the acceptance bar is >= 10x at 10k txs. (The weighted walk reads the
// same exact weights; its cost is measured in tip_selection_bench.)
#include <cstdio>

#include "consensus/pow.h"
#include "crypto/identity.h"
#include "harness.h"
#include "tangle/tip_selection.h"

namespace {
using namespace biot;

struct Bed {
  tangle::Tangle tangle{tangle::Tangle::make_genesis()};
  crypto::Identity identity = crypto::Identity::deterministic(1);
  consensus::Miner miner;
  std::uint64_t seq = 0;
  double build_seconds = 0.0;

  void grow_uniform(int txs, Rng& rng) {
    tangle::UniformRandomTipSelector uniform;
    const obs::WallTimer timer;
    for (int i = 0; i < txs; ++i) {
      const auto [p1, p2] = uniform.select(tangle, rng);
      tangle::Transaction tx;
      tx.type = tangle::TxType::kData;
      tx.sender = identity.public_identity().sign_key;
      tx.parent1 = p1;
      tx.parent2 = p2;
      tx.sequence = seq++;
      tx.timestamp = 0.1 * i;
      tx.difficulty = 1;
      tx.nonce = miner.mine(p1, p2, 1)->nonce;
      tx.signature = identity.sign(tx.signing_bytes());
      if (!tangle.add(tx, 0.1 * i).is_ok()) std::abort();
    }
    build_seconds = timer.elapsed();
  }
};

void confirmation_path(const Bed& bed, double* brute_us, double* incr_us) {
  // Confirmation queries over a spread of transactions (old and new alike),
  // exactly what Gateway::confirmation_status serves per kConfirmQuery.
  const auto& order = bed.tangle.arrival_order();
  const int queries = 200;

  auto run = [&](auto&& weight_fn) {
    const obs::WallTimer timer;
    for (int q = 0; q < queries; ++q) {
      const auto& id = order[(q * 7919) % order.size()];
      bench::do_not_optimize(weight_fn(id));
    }
    return timer.elapsed() * 1e6 / queries;
  };

  *brute_us = run([&](const tangle::TxId& id) {
    return bed.tangle.cumulative_weight_brute_force(id);
  });
  *incr_us =
      run([&](const tangle::TxId& id) { return bed.tangle.cumulative_weight(id); });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("weight_cache", argc, argv);
  std::printf("# Incremental weight engine vs brute-force DAG sweeps\n");
  std::printf("%-8s %9s | %12s %12s %9s\n", "txs", "build_s", "confirm_bf",
              "confirm_inc", "speedup");
  std::printf("#        (us/query unless noted)\n");

  for (const int n : h.quick() ? std::vector<int>{500, 2000}
                                : std::vector<int>{1000, 5000, 10000}) {
    Bed bed;
    Rng rng(42);
    bed.grow_uniform(n, rng);

    double confirm_bf = 0, confirm_inc = 0;
    confirmation_path(bed, &confirm_bf, &confirm_inc);

    std::printf("%-8d %9.2f | %12.3f %12.3f %8.0fx\n", n, bed.build_seconds,
                confirm_bf, confirm_inc,
                confirm_inc > 0 ? confirm_bf / confirm_inc : 0.0);
    const auto tag = ".n" + std::to_string(n);
    h.record("confirm_us.brute" + tag, confirm_bf, "us/op");
    h.record("confirm_us.incremental" + tag, confirm_inc, "us/op");
  }

  std::printf(
      "\n# confirm_inc is an O(1) record lookup (the add path already paid "
      "the +1 cone propagation). Acceptance: confirm speedup >= 10x at "
      "10000 txs.\n");
  return h.finish();
}
