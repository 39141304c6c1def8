// Whole-system workloads on factory::SmartFactory: `factory` (the paper's
// deployment, open loop in simulated time) and `gateway_restart` (crash,
// outage, cold restart from the persisted replica, anti-entropy catch-up).
#include <algorithm>
#include <map>
#include <optional>

#include "factory/scenario.h"
#include "layers.h"
#include "node/convergence.h"
#include "obs/stats.h"
#include "storage/tangle_io.h"
#include "workloads.h"

namespace biot::perf {
namespace {

constexpr std::size_t kConfirmWeight = 5;
constexpr double kStep = 0.5;  // one collect interval of simulated time

// factory: simulated horizon, and the window of issue times whose
// confirmation latency is reported (early txs share the bootstrap tips,
// late ones have not had time to gather weight).
constexpr double kFactoryHorizon = 60.0;
constexpr double kConfirmFrom = 5.0;
constexpr double kConfirmTail = 8.0;
// A factory run cycles through kFleets fleets seeded from the run's seed
// (a traced run gives each fleet an untraced and a traced rep in turn), so
// its medians average over several deployments: one fleet's credit and PoW
// trajectory alone moved host time per transaction by ~15% between seeds.
constexpr int kFleets = 4;

// gateway_restart: history built in setup, then kCycles crash/restart
// cycles of kOutage simulated seconds down and kGap seconds up.
constexpr double kHistory = 20.0;
constexpr int kCycles = 4;
constexpr double kOutage = 3.0;
constexpr double kGap = 2.0;
constexpr double kSettleStep = 0.05;
constexpr double kSettleCap = 30.0;

/// 2 gateways, 32 Pi-3B devices collecting every 0.5 s, the credit policy
/// and uniform tips (GatewayConfig defaults), no key distribution.
factory::ScenarioConfig fleet_config(std::uint64_t seed) {
  factory::ScenarioConfig c;
  c.num_gateways = 2;
  c.num_devices = 32;
  c.distribute_keys = false;
  c.seed = seed;
  c.device.collect_interval = kStep;
  c.device.profile = sim::DeviceProfile::pi3b_fig9();
  c.gateway.sync_interval = 1.0;
  return c;
}

std::uint64_t fleet_seed(std::uint64_t seed, int fleet) {
  return seed * kFleets + static_cast<std::uint64_t>(fleet);
}

/// The inputs a seed generates are the fleet's identities (and every
/// stream derived from the same seed); another seed must change them.
bool seeds_differ(std::uint64_t seed, std::uint64_t other) {
  factory::SmartFactory a(fleet_config(seed));
  factory::SmartFactory b(fleet_config(other));
  return !(a.device(0).public_identity() == b.device(0).public_identity()) &&
         !(a.manager().public_identity() == b.manager().public_identity());
}

bool digests_agree(factory::SmartFactory& f) {
  const auto& ref = f.gateway(0).tangle();
  for (std::size_t g = 1; g < f.gateway_count(); ++g) {
    const auto& t = f.gateway(g).tangle();
    if (t.size() != ref.size() || !(t.id_digest() == ref.id_digest()))
      return false;
  }
  return true;
}

/// Steps the clock until every replica holds the same id set. Returns the
/// simulated seconds it took, or a negative value past kSettleCap.
double settle(factory::SmartFactory& f) {
  const TimePoint start = f.scheduler().now();
  for (TimePoint t = start; t <= start + kSettleCap; t += kSettleStep) {
    f.run_until(t);
    if (digests_agree(f)) return t - start;
  }
  return -1.0;
}

struct FleetCounts {
  std::uint64_t accepted = 0;
  std::uint64_t failed = 0;   // rejected, unauthorized or timed out
  std::uint64_t mined = 0;    // device transactions mined and signed
};

FleetCounts fleet_counts(factory::SmartFactory& f) {
  FleetCounts c;
  for (std::size_t d = 0; d < f.device_count(); ++d) {
    const auto& s = f.device(d).stats();
    c.accepted += s.accepted;
    c.failed += s.rejected + s.unauthorized + s.timeouts;
    c.mined += s.pow_durations.size();
  }
  return c;
}

/// Quiesces the devices, lets anti-entropy finish and runs the
/// ConvergenceChecker with full replica audits.
void check_converged(factory::SmartFactory& f, Report& report,
                     const char* workload) {
  f.stop_devices();
  const bool agreed = settle(f) >= 0.0;
  node::ConvergenceOptions options;
  options.audit_replicas = true;
  node::ConvergenceChecker checker(options);
  for (std::size_t g = 0; g < f.gateway_count(); ++g)
    checker.add_replica(&f.gateway(g));
  for (std::size_t d = 0; d < f.device_count(); ++d)
    checker.add_device(&f.device(d));
  const auto verdict = checker.check();
  report.check(agreed && verdict.ok(), std::string(workload) +
                                           ": replicas did not converge: " +
                                           verdict.to_string());
}

std::vector<tangle::Transaction> data_txs(const tangle::Tangle& t,
                                          TimePoint from, TimePoint to) {
  std::vector<tangle::Transaction> out;
  for (const auto& id : t.arrival_order()) {
    const auto* rec = t.find(id);
    if (rec->tx.type == tangle::TxType::kData && rec->tx.timestamp >= from &&
        rec->tx.timestamp < to)
      out.push_back(rec->tx);
  }
  return out;
}

/// Replays the device layers on the data transactions `t` attached since
/// `*seen` (which advances). Called right after a timed region, outside it,
/// so the replayed costs see nearly the same host conditions: a shared host
/// can change speed within seconds.
void replay_fresh(const tangle::Tangle& t, std::size_t* seen,
                  LayerReplay& replay, Tracer& tracer, std::uint64_t seed,
                  std::size_t max_samples) {
  std::vector<tangle::Transaction> fresh;
  const auto& order = t.arrival_order();
  for (; *seen < order.size(); ++*seen) {
    const auto* rec = t.find(order[*seen]);
    if (rec->tx.type == tangle::TxType::kData) fresh.push_back(rec->tx);
  }
  replay.run(fresh, tracer, seed, max_samples);
}

std::vector<const node::Gateway*> gateways_of(factory::SmartFactory& f) {
  std::vector<const node::Gateway*> out;
  for (std::size_t g = 0; g < f.gateway_count(); ++g)
    out.push_back(&f.gateway(g));
  return out;
}

/// What a rep must reproduce exactly on the same seed.
struct Outcome {
  std::uint64_t accepted = 0, failed = 0, tangle_size = 0;
  tangle::IdDigest digest{};
  std::vector<double> sim_metrics;  // simulated-time results
  bool operator==(const Outcome&) const = default;
};

void check_deterministic(std::vector<Outcome>& outcomes, const Outcome& now,
                         Report& report) {
  if (!outcomes.empty())
    report.check(outcomes.front() == now,
                 "same seed gave different simulated results across reps");
  outcomes.push_back(now);
}

}  // namespace

void run_factory(const Options& opt, Tracer& tracer, Report& report) {
  report.check(seeds_differ(fleet_seed(opt.seed, 0),
                            fleet_seed(opt.seed + 1, 0)),
               "a different seed did not change the generated inputs");
  EndToEnd e2e;
  LayerTotals totals;
  LayerReplay replay;
  std::map<int, std::vector<double>> sim_metrics;  // first rep of each fleet
  std::map<int, std::vector<Outcome>> outcomes;

  repeat(opt, tracer, opt.trace ? 2 * kFleets : kFleets, [&](int rep) {
    const int fleet = (opt.trace ? rep / 2 : rep) % kFleets;
    const auto t_setup = Clock::now();
    factory::SmartFactory f(fleet_config(fleet_seed(opt.seed, fleet)));
    {
      const auto span = tracer.span("factory.setup", rep);
      f.bootstrap();
    }
    e2e.setup_s.push_back(seconds_since(t_setup));
    attach_process_counters(f.metrics());

    // A traced rep windows and replays each step on its own, so the
    // replayed costs are sampled across the same stretch of time.
    double host_s = 0.0;
    std::uint64_t step = 0;
    std::size_t replayed_to = 0;
    for (TimePoint t = kStep; t <= kFactoryHorizon + 1e-9; t += kStep) {
      std::optional<Window> window;
      if (tracer.enabled()) window.emplace(f.metrics(), gateways_of(f));
      {
        const auto span = tracer.span("sim.step", step++);
        const auto t_op = Clock::now();
        f.run_until(t);
        const double step_s = seconds_since(t_op);
        host_s += step_s;
        e2e.op_us.push_back(step_s * 1e6);
      }
      if (tracer.enabled()) {
        window->close(totals);
        replay_fresh(f.gateway(0).tangle(), &replayed_to, replay, tracer,
                     opt.seed, 3);
      }
    }
    const FleetCounts counts = fleet_counts(f);
    if (tracer.enabled()) {
      totals.accepted += static_cast<double>(counts.accepted);
      totals.host_s += host_s;
      totals.counters["bench.signs"] += static_cast<double>(counts.mined);
    }

    e2e.attempted += counts.accepted + counts.failed;
    e2e.ok += counts.accepted;
    e2e.end_rep(tracer.enabled(), us_per_tx(host_s, counts.accepted), fleet);

    // Simulated-time metrics from the final DAG and the device records.
    const auto& replica = f.gateway(0).tangle();
    std::size_t unconfirmed = 0;
    const auto latencies = confirmation_latencies(
        replica, kConfirmWeight, kConfirmFrom, kFactoryHorizon - kConfirmTail,
        &unconfirmed);
    report.check(unconfirmed == 0,
                 "factory: transactions in the confirmation window never "
                 "reached weight 5");
    std::vector<double> pow_times;
    for (std::size_t d = 0; d < f.device_count(); ++d) {
      const auto& p = f.device(d).stats().pow_durations;
      pow_times.insert(pow_times.end(), p.begin(), p.end());
    }
    const auto txs = data_txs(replica, 0.0, kFactoryHorizon);
    const std::vector<double> sim{obs::percentile(latencies, 50),
                                  obs::percentile(latencies, 99),
                                  obs::percentile(pow_times, 50)};
    sim_metrics.emplace(fleet, sim);
    check_deterministic(outcomes[fleet],
                        Outcome{counts.accepted, counts.failed, replica.size(),
                                replica.id_digest(), sim},
                        report);
    if (tracer.enabled())
      for (const auto& tx : txs) totals.difficulties.push_back(tx.difficulty);
    check_converged(f, report, "factory");
  });

  finish_end_to_end(opt, e2e, "sim step (0.5 s simulated)", report);
  if (!opt.trace) return;
  report.check(replay.signatures_valid(),
               "an accepted transaction failed signature verification");
  report_shared_layers(totals, replay, report);
  // Medians over the fleets, which every run covers: exact for a seed.
  const auto over_fleets = [&](std::size_t i) {
    std::vector<double> values;
    for (const auto& [fleet, sim] : sim_metrics) values.push_back(sim[i]);
    return median(values);
  };
  report.layer("tangle.confirm_p50_sim_s", over_fleets(0), "sim_s");
  report.layer("tangle.confirm_p99_sim_s", over_fleets(1), "sim_s");
  report.layer("consensus.device_pow_p50_sim_s", over_fleets(2), "sim_s");
  TimedLayerWork work;
  work.pow_attempts = totals.per_tx("process.pow.attempts", "");
  work.signs = totals.per_tx("bench.signs", "");
  work.measured_us = measured_us_per_tx(
      totals, {"admission.verify", "admission.attach", "admission.read"});
  report.layer("sim.unaccounted_us_per_tx",
               unaccounted_us_per_tx(totals.host_us_per_tx(), replay, work,
                                     report),
               "us");
}

void run_gateway_restart(const Options& opt, Tracer& tracer, Report& report) {
  report.check(seeds_differ(opt.seed, opt.seed + 1),
               "a different seed did not change the generated inputs");
  EndToEnd e2e;
  LayerTotals totals;
  LayerReplay replay;
  std::vector<double> recovery_sim, replica_bytes;
  HistDelta replay_phases;  // admit_many phases inside restart_gateway
  int traced_restarts = 0;
  std::vector<Outcome> outcomes;
  std::uint64_t request = 0;

  repeat(opt, tracer, 2, [&](int rep) {
    const auto t_setup = Clock::now();
    factory::SmartFactory f(fleet_config(opt.seed));
    {
      const auto span = tracer.span("factory.setup", rep);
      f.bootstrap();
      f.run_until(kHistory);
    }
    e2e.setup_s.push_back(seconds_since(t_setup));
    attach_process_counters(f.metrics());

    const FleetCounts before = fleet_counts(f);
    const TimePoint cycles_from = f.scheduler().now();
    std::size_t replayed_to = f.gateway(0).tangle().size();
    double host_s = 0.0;
    std::vector<double> rep_recovery_sim;
    for (int c = 0; c < kCycles; ++c, ++request) {
      // Storage layer, replayed on the replica the crash is about to
      // persist (the bytes restart_gateway deserializes), before the timed
      // cycle and outside its window.
      if (tracer.enabled()) {
        Bytes wire;
        {
          const auto span = tracer.span("storage.serialize", request);
          wire = storage::serialize_tangle(f.gateway(1).tangle());
        }
        replica_bytes.push_back(static_cast<double>(wire.size()));
        const auto span = tracer.span("storage.deserialize", request);
        report.check(storage::deserialize_tangle(wire).is_ok(),
                     "gateway_restart: persisted replica failed to reload");
      }
      // One window per cycle: gateway 1's counters restart from its replay,
      // which Window::close accounts for.
      const Window window(f.metrics(), gateways_of(f));
      {
        const auto cycle_span = tracer.span("restart.cycle", request);
        const auto t_cycle = Clock::now();
        {
          const auto span = tracer.span("factory.crash_gateway", request);
          f.crash_gateway(1);
        }
        {
          const auto span = tracer.span("sim.outage", request);
          f.run_until(f.scheduler().now() + kOutage);
        }
        // The cold-start replay runs through admit_many, whose phase and
        // stage histograms time it inside restart_gateway; the rest of the
        // call is deserialization (one signature verify per tx).
        const auto& m = f.gateway(1).metrics();
        const HistMark read = mark(m.admission_batch.read_wall_s);
        const HistMark commit = mark(m.admission_batch.commit_wall_s);
        const HistMark verify = mark(m.admission.verify_wall_s);
        const HistMark attach = mark(m.admission.attach_wall_s);
        const auto t_restart = Clock::now();
        const TimePoint sim_restart = f.scheduler().now();
        {
          const auto span = tracer.span("factory.restart_gateway", request);
          f.restart_gateway(1);
        }
        if (tracer.enabled()) {
          HistDelta stages;
          add_since(stages, read);
          add_since(stages, verify);
          add_since(stages, attach);
          totals.counters["bench.restart_untimed_us"] +=
              seconds_since(t_restart) * 1e6 - stages.sum() * 1e6;
          add_since(replay_phases, read);
          add_since(replay_phases, commit);
          ++traced_restarts;
        }
        double waited = 0.0;
        {
          const auto span = tracer.span("sim.converge", request);
          waited = settle(f);
        }
        const double recovery_s = seconds_since(t_restart);
        ++e2e.attempted;
        if (waited >= 0.0) {
          ++e2e.ok;
          e2e.op_us.push_back(recovery_s * 1e6);
          rep_recovery_sim.push_back(f.scheduler().now() - sim_restart);
        }
        report.check(waited >= 0.0, "gateway_restart: restarted replica did "
                                    "not catch up within the settle cap");
        {
          const auto span = tracer.span("sim.run", request);
          f.run_until(f.scheduler().now() + kGap);
        }
        host_s += seconds_since(t_cycle);
      }
      if (tracer.enabled()) {
        window.close(totals);
        replay_fresh(f.gateway(0).tangle(), &replayed_to, replay, tracer,
                     opt.seed, 60);
      }
    }
    const FleetCounts after = fleet_counts(f);
    const std::uint64_t accepted = after.accepted - before.accepted;
    e2e.end_rep(tracer.enabled(), us_per_tx(host_s, accepted));
    recovery_sim.insert(recovery_sim.end(), rep_recovery_sim.begin(),
                        rep_recovery_sim.end());

    const auto& replica = f.gateway(0).tangle();
    const auto txs = data_txs(replica, cycles_from, f.scheduler().now());
    check_deterministic(
        outcomes,
        Outcome{accepted, after.failed - before.failed, replica.size(),
                replica.id_digest(), rep_recovery_sim},
        report);
    if (tracer.enabled()) {
      totals.accepted += static_cast<double>(accepted);
      totals.host_s += host_s;
      totals.counters["bench.signs"] +=
          static_cast<double>(after.mined - before.mined);
      for (const auto& tx : txs) totals.difficulties.push_back(tx.difficulty);
    }
    check_converged(f, report, "gateway_restart");
  });

  finish_end_to_end(opt, e2e, "recovery (restart_gateway until digests agree)",
                    report);
  if (!opt.trace) return;
  report.check(replay.signatures_valid(),
               "an accepted transaction failed signature verification");
  report_shared_layers(totals, replay, report);
  report.layer("sync.recovery_sim_s", median(recovery_sim), "sim_s");
  const double deserialize_ms =
      tracer.mean_self_us("storage.deserialize") / 1e3;
  report.layer("storage.serialize_ms",
               tracer.mean_self_us("storage.serialize") / 1e3, "ms");
  report.layer("storage.deserialize_ms", deserialize_ms, "ms");
  report.layer("storage.replay_ms",
               traced_restarts ? replay_phases.sum() * 1e3 / traced_restarts
                               : 0.0,
               "ms");
  report.layer("storage.replica_bytes", obs::mean(replica_bytes), "B");
  // restart_gateway's time outside the admission stages (deserialization,
  // which verifies every signature, and state rebuild) is measured whole.
  TimedLayerWork work;
  work.pow_attempts = totals.per_tx("process.pow.attempts", "");
  work.signs = totals.per_tx("bench.signs", "");
  work.measured_us = totals.per_tx("bench.restart_untimed_us", "") +
                     measured_us_per_tx(totals, {"admission.verify",
                                                 "admission.attach",
                                                 "admission.read"});
  report.layer("sim.unaccounted_us_per_tx",
               unaccounted_us_per_tx(totals.host_us_per_tx(), replay, work,
                                     report),
               "us");
}

}  // namespace biot::perf
