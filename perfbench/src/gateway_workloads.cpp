// Single-gateway workloads driving node::Gateway directly: `ingress_burst`
// (batch admission of a pre-signed, pre-mined burst) and `tips_under_write`
// (weighted-walk tip selection after every write).
#include <algorithm>
#include <iterator>
#include <memory>

#include "consensus/pow.h"
#include "crypto/ed25519.h"
#include "layers.h"
#include "node/manager.h"
#include "obs/stats.h"
#include "tangle/tip_selection.h"
#include "workloads.h"

namespace biot::perf {
namespace {

// ingress_burst: burst size, issuing devices and admit_many slice size. The
// timed gateway admits inline (admission_threads = 1): with 4 lanes on a
// 4-vCPU VM the timings followed the CPU time other tenants of the host left
// free (spread 32-45% of the median over six to ten runs, against 2% inline
// in the same minutes). A gateway with
// kCheckLanes lanes admits the same burst once per run, untimed, so the
// pooled read phase still runs and is checked against the inline digest.
constexpr std::size_t kBurstTxs = 2048;
constexpr std::size_t kBurstDevices = 64;
constexpr std::size_t kSlice = 32;
constexpr unsigned kCheckLanes = 4;

// tips_under_write: preloaded history, issuing devices, timed device
// cycles per rep and the simulated time between cycles.
constexpr std::size_t kPreloadTxs = 3000;
constexpr std::size_t kTipsDevices = 16;
constexpr std::size_t kCycles = 1000;
constexpr double kCycleDt = 0.02;
constexpr double kWalkAlpha = 0.5;

// Parents of generated transactions are drawn from the most recent ids,
// the shape a live tangle's tip set has.
constexpr std::size_t kParentWindow = 8;
constexpr std::size_t kPayloadBytes = 32;

crypto::Identity device_identity(std::uint64_t seed, std::size_t d) {
  return crypto::Identity::deterministic(seed * 1000003ull + 10 + d);
}

std::vector<crypto::Identity> device_identities(std::uint64_t seed,
                                                std::size_t n) {
  std::vector<crypto::Identity> out;
  for (std::size_t d = 0; d < n; ++d) out.push_back(device_identity(seed, d));
  return out;
}

bool seed_changes_inputs(std::uint64_t seed) {
  Rng a(seed), b(seed + 1);
  return !(device_identity(seed, 0).public_identity() ==
           device_identity(seed + 1, 0).public_identity()) &&
         a.next() != b.next();
}

/// One gateway plus its co-located manager, with `devices` on the
/// authorization list. Instruments are exported through `registry`.
struct Rig {
  Rig(std::uint64_t seed, const node::GatewayConfig& config,
      const std::vector<crypto::Identity>& devices)
      : gateway_identity(crypto::Identity::deterministic(seed * 7 + 1)),
        manager_identity(crypto::Identity::deterministic(seed * 7 + 2)),
        network(sched, std::make_unique<sim::FixedLatency>(0.001), Rng(seed)),
        gateway(1, gateway_identity,
                manager_identity.public_identity().sign_key,
                tangle::Tangle::make_genesis(), network, config),
        manager(2, manager_identity, gateway, network) {
    gateway.attach();
    manager.attach();
    gateway.bind_metrics(registry.scope("gateway.g0"));
    network.stats().attach_to(registry.scope("net"));
    attach_process_counters(registry);
    std::vector<crypto::PublicIdentity> list;
    for (const auto& d : devices) list.push_back(d.public_identity());
    authorized = manager.authorize(list).is_ok();
    sched.run_until(0.01);
  }

  // Declared first, so destroyed last: it holds the addresses of the
  // gateway's and the network's instruments.
  obs::MetricsRegistry registry;
  sim::Scheduler sched;
  crypto::Identity gateway_identity;
  crypto::Identity manager_identity;
  sim::Network network;
  node::Gateway gateway;
  node::Manager manager;
  bool authorized = false;
};

/// Issues signed, mined data transactions round-robin from `devices`, each
/// at the difficulty the gateway requires of that device and approving two
/// distinct ids among the most recent kParentWindow. Each is handed out in
/// wire form (decoded from its encoding), as every real ingress path sees
/// it, so its id is cached from the wire bytes.
class TxSource {
 public:
  TxSource(std::uint64_t seed, const std::vector<crypto::Identity>& devices)
      : devices_(devices), sequence_(devices.size(), 0), rng_(seed),
        miner_(seed << 24) {}

  /// Builds `count` transactions on top of `roots` without admitting them.
  std::vector<tangle::Transaction> dag(const node::Gateway& gateway,
                                       std::vector<tangle::TxId> roots,
                                       std::size_t count, TimePoint now,
                                       Tracer& tracer) {
    std::vector<tangle::Transaction> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t window = std::min(kParentWindow, roots.size());
      const std::size_t a = roots.size() - 1 - rng_.below(window);
      std::size_t b = roots.size() - 1 - rng_.below(window);
      if (window > 1)
        while (b == a) b = roots.size() - 1 - rng_.below(window);
      out.push_back(next(gateway, {roots[a], roots[b]}, now, tracer, i));
      roots.push_back(out.back().id());
    }
    return out;
  }

  /// One device transaction approving `tips`, with PoW and signing spans.
  tangle::Transaction next(const node::Gateway& gateway,
                           const tangle::TipPair& tips, TimePoint now,
                           Tracer& tracer, std::uint64_t request) {
    const std::size_t d = next_device_++ % devices_.size();
    const auto& identity = devices_[d];
    tangle::Transaction tx;
    tx.type = tangle::TxType::kData;
    tx.sender = identity.public_identity().sign_key;
    tx.parent1 = tips.first;
    tx.parent2 = tips.second;
    tx.sequence = sequence_[d]++;
    tx.timestamp = now;
    tx.difficulty =
        static_cast<std::uint8_t>(gateway.required_difficulty(tx.sender));
    tx.payload.resize(kPayloadBytes);
    for (auto& byte : tx.payload) byte = static_cast<std::uint8_t>(rng_.next());
    {
      const auto span = tracer.span("consensus.pow", request);
      tx.nonce = miner_.mine(tx.parent1, tx.parent2, tx.difficulty)->nonce;
    }
    const Bytes message = tx.signing_bytes();
    {
      const auto span = tracer.span("crypto.sign", request);
      tx.signature = identity.sign(message);
    }
    return tangle::Transaction::decode(tx.encode()).take();
  }

 private:
  const std::vector<crypto::Identity>& devices_;
  std::vector<std::uint64_t> sequence_;
  std::size_t next_device_ = 0;
  Rng rng_;
  consensus::Miner miner_;
};

std::vector<tangle::TxId> roots_of(const tangle::Tangle& t) {
  return t.arrival_order();  // genesis and the authorization transaction
}

/// Splits `txs` into slices of `n`, moving them: a copied transaction drops
/// its cached id.
std::vector<std::vector<tangle::Transaction>> slices_of(
    std::vector<tangle::Transaction> txs, std::size_t n) {
  std::vector<std::vector<tangle::Transaction>> out;
  const auto begin = std::make_move_iterator(txs.begin());
  for (std::size_t i = 0; i < txs.size(); i += n)
    out.emplace_back(
        begin + static_cast<std::ptrdiff_t>(i),
        begin + static_cast<std::ptrdiff_t>(std::min(i + n, txs.size())));
  return out;
}

bool all_ok(const std::vector<Status>& statuses) {
  return std::all_of(statuses.begin(), statuses.end(),
                     [](const Status& s) { return s.is_ok(); });
}

node::GatewayConfig ingress_config(unsigned threads) {
  node::GatewayConfig c;
  c.admission_threads = threads;
  return c;
}

}  // namespace

void run_ingress_burst(const Options& opt, Tracer& tracer, Report& report) {
  report.check(seed_changes_inputs(opt.seed),
               "a different seed did not change the generated inputs");
  const auto devices = device_identities(opt.seed, kBurstDevices);

  // Inputs: the burst, built against the state every fresh rig starts from
  // (the rig is deterministic for a seed), then the digest a kCheckLanes-lane
  // admission of the same slices produces; every timed inline rep must
  // reach it.
  const auto t_inputs = Clock::now();
  std::vector<std::vector<tangle::Transaction>> slices;
  tangle::IdDigest reference{};
  std::size_t reference_size = 0;
  double queue_depth = 0.0;  // the pooled read phase's backlog gauge
  {
    Rig rig(opt.seed, ingress_config(kCheckLanes), devices);
    report.check(rig.authorized, "ingress_burst: authorization failed");
    TxSource source(opt.seed, devices);
    slices = slices_of(source.dag(rig.gateway, roots_of(rig.gateway.tangle()),
                                  kBurstTxs, rig.sched.now(), tracer),
                       kSlice);
    bool ok = true;
    for (const auto& slice : slices)
      ok = all_ok(rig.gateway.admit_many(slice, node::Ingress::kSync)) && ok;
    report.check(ok, "ingress_burst: pooled admission rejected a tx");
    reference = rig.gateway.tangle().id_digest();
    reference_size = rig.gateway.tangle().size();
    queue_depth = rig.gateway.metrics().admission_batch.read_queue_depth;
  }
  report.note("inputs built in " + std::to_string(seconds_since(t_inputs)) +
              " s");

  EndToEnd e2e;
  LayerTotals totals;
  LayerReplay replay;
  repeat(opt, tracer, 5, [&](int rep) {
    const auto t_setup = Clock::now();
    Rig rig(opt.seed, ingress_config(1), devices);
    e2e.setup_s.push_back(seconds_since(t_setup));
    report.check(rig.authorized, "ingress_burst: authorization failed");

    const Window window(rig.registry, {&rig.gateway});
    double host_s = 0.0;
    std::uint64_t ok = 0, attempted = 0;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const auto span = tracer.span("node.admit_many", i);
      const auto t_op = Clock::now();
      const auto statuses =
          rig.gateway.admit_many(slices[i], node::Ingress::kSync);
      const double call_s = seconds_since(t_op);
      host_s += call_s;
      e2e.op_us.push_back(call_s * 1e6);
      attempted += statuses.size();
      ok += static_cast<std::uint64_t>(
          std::count_if(statuses.begin(), statuses.end(),
                        [](const Status& s) { return s.is_ok(); }));
    }
    if (tracer.enabled()) {
      window.close(totals);
      totals.accepted += static_cast<double>(ok);
      totals.host_s += host_s;
    }
    e2e.attempted += attempted;
    e2e.ok += ok;
    e2e.end_rep(tracer.enabled(), us_per_tx(host_s, ok));
    report.check(ok == attempted,
                 "ingress_burst: a burst transaction was rejected");
    report.check(rig.gateway.tangle().id_digest() == reference &&
                     rig.gateway.tangle().size() == reference_size,
                 "ingress_burst: inline admission diverged from the pooled "
                 "admission's digest (rep " + std::to_string(rep) + ")");

    if (tracer.enabled()) {
      std::vector<tangle::Transaction> all;
      for (const auto& s : slices) all.insert(all.end(), s.begin(), s.end());
      replay.run(all, tracer, opt.seed, 100);
      // Batch verification of the ingress slices, one call per slice.
      std::vector<Bytes> messages;
      for (std::size_t i = 0; i < slices.size(); ++i) {
        messages.clear();
        for (const auto& tx : slices[i]) messages.push_back(tx.signing_bytes());
        std::vector<crypto::VerifyItem> items;
        for (std::size_t k = 0; k < slices[i].size(); ++k)
          items.push_back(
              {&slices[i][k].sender, messages[k], &slices[i][k].signature});
        const auto span = tracer.span("crypto.verify_batch", i);
        const auto valid = crypto::ed25519_verify_batch(items);
        report.check(
            std::all_of(valid.begin(), valid.end(), [](bool v) { return v; }),
            "ingress_burst: batch verification rejected a signature");
      }
    }
  });

  finish_end_to_end(opt, e2e, "admit_many call (32-tx slice)", report);
  if (!opt.trace) return;
  report.check(replay.signatures_valid(),
               "an admitted transaction failed signature verification");
  report_shared_layers(totals, replay, report);
  report.layer("crypto.verify_batch_us_per_sig",
               tracer.mean_self_us("crypto.verify_batch") / kSlice, "us");
  report.layer("admission.read_queue_depth", queue_depth, "count");
  // Verification runs inside the read phase, so the measured read and
  // commit wall time covers it; the replayed verify cost is not added.
  TimedLayerWork work;
  work.measured_us =
      measured_us_per_tx(totals, {"admission.read", "admission.commit"});
  report.layer("sim.unaccounted_us_per_tx",
               unaccounted_us_per_tx(totals.host_us_per_tx(), replay,
                                     work, report),
               "us");
}

void run_tips_under_write(const Options& opt, Tracer& tracer, Report& report) {
  report.check(seed_changes_inputs(opt.seed),
               "a different seed did not change the generated inputs");
  const auto devices = device_identities(opt.seed, kTipsDevices);
  node::GatewayConfig config;
  config.tips = node::GatewayConfig::TipStrategy::kWeightedWalk;
  config.walk_alpha = kWalkAlpha;

  // Inputs: the preloaded history (built once; every rig starts identical).
  // The device side of every rep continues from the preload's source state
  // (sequence numbers, payload stream, miner nonces).
  std::vector<std::vector<tangle::Transaction>> preload;
  TxSource preload_source(opt.seed, devices);
  {
    Rig rig(opt.seed, config, devices);
    report.check(rig.authorized, "tips_under_write: authorization failed");
    preload = slices_of(
        preload_source.dag(rig.gateway, roots_of(rig.gateway.tangle()),
                           kPreloadTxs, rig.sched.now(), tracer),
        256);
  }

  EndToEnd e2e;
  LayerTotals totals;
  LayerReplay replay;
  std::vector<double> write_us;
  std::vector<std::pair<tangle::IdDigest, std::size_t>> outcomes;
  repeat(opt, tracer, 3, [&](int rep) {
    const auto t_setup = Clock::now();
    Rig rig(opt.seed, config, devices);
    bool preloaded = rig.authorized;
    for (const auto& slice : preload)
      preloaded =
          all_ok(rig.gateway.admit_many(slice, node::Ingress::kSync)) &&
          preloaded;
    e2e.setup_s.push_back(seconds_since(t_setup));
    report.check(preloaded, "tips_under_write: preload was rejected");

    TxSource source = preload_source;
    const Window window(rig.registry, {&rig.gateway});
    const tangle::WeightedWalkTipSelector walk(kWalkAlpha);
    Rng walk_rng(opt.seed);
    double host_s = 0.0, select_s_total = 0.0;
    std::uint64_t ok = 0;
    for (std::size_t c = 0; c < kCycles; ++c) {
      const std::uint64_t request =
          static_cast<std::uint64_t>(rep) * kCycles + c;
      const auto cycle_span = tracer.span("device.cycle", request);
      tangle::TipPair tips;
      {
        const auto span = tracer.span("node.select_tips", request);
        const auto t_op = Clock::now();
        tips = rig.gateway.select_tips();
        const double select_s = seconds_since(t_op);
        host_s += select_s;
        select_s_total += select_s;
        e2e.op_us.push_back(select_s * 1e6);
      }
      const auto& replica = rig.gateway.tangle();
      const bool valid_pair =
          replica.contains(tips.first) && replica.contains(tips.second);
      if (tracer.enabled()) {
        const auto span = tracer.span("tangle.select", request);
        (void)walk.select(replica, walk_rng);
      }
      const auto tx =
          source.next(rig.gateway, tips, rig.sched.now(), tracer, request);
      Status status = Status::ok();
      {
        const auto span = tracer.span("node.submit", request);
        const auto t_op = Clock::now();
        status = rig.gateway.submit(tx);
        const double submit_s = seconds_since(t_op);
        host_s += submit_s;
        write_us.push_back(submit_s * 1e6);
      }
      ++e2e.attempted;
      if (valid_pair && status.is_ok()) ++e2e.ok, ++ok;
      rig.sched.run_until(rig.sched.now() + kCycleDt);
    }
    if (tracer.enabled()) {
      window.close(totals);
      totals.accepted += static_cast<double>(ok);
      totals.host_s += host_s;
      totals.counters["bench.select_us"] += select_s_total * 1e6;
    }
    e2e.end_rep(tracer.enabled(), us_per_tx(host_s, ok));
    report.check(ok == kCycles, "tips_under_write: an invalid tip pair or a "
                                "rejected write");
    const auto& replica = rig.gateway.tangle();
    outcomes.emplace_back(replica.id_digest(), replica.size());
    report.check(outcomes.front() == outcomes.back(),
                 "same seed gave different tangles across reps");
    if (tracer.enabled()) {
      std::vector<tangle::Transaction> written;
      const auto& order = replica.arrival_order();
      for (std::size_t i = order.size() - kCycles; i < order.size(); ++i)
        written.push_back(replica.find(order[i])->tx);
      for (const auto& tx : written)
        totals.difficulties.push_back(tx.difficulty);
      replay.run(written, tracer, opt.seed, 200);
    }
  });

  finish_end_to_end(opt, e2e, "select_tips call", report);
  if (!opt.trace) return;
  report.check(replay.signatures_valid(),
               "an admitted transaction failed signature verification");
  report_shared_layers(totals, replay, report);
  const double select_us = tracer.mean_self_us("tangle.select");
  report.layer("tangle.select_us", select_us, "us");
  report.layer("node.write_p50_us", obs::percentile(write_us, 50), "us");
  // Device PoW and signing run outside the timed region here; select_tips
  // is timed by the benchmark, verify and attach by the gateway.
  TimedLayerWork work;
  work.measured_us =
      totals.per_tx("bench.select_us", "") +
      measured_us_per_tx(totals, {"admission.verify", "admission.attach"});
  report.layer("sim.unaccounted_us_per_tx",
               unaccounted_us_per_tx(totals.host_us_per_tx(), replay, work,
                                     report),
               "us");
}

}  // namespace biot::perf
