#include "layers.h"

#include <algorithm>

#include "obs/stats.h"

namespace biot::perf {

namespace {

bool matches(std::string_view name, std::string_view prefix,
             std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.substr(0, prefix.size()) == prefix &&
         name.substr(name.size() - suffix.size()) == suffix;
}

// Gateway histograms windowed per rep, keyed by per-layer stem.
std::vector<std::pair<std::string, const obs::Histogram*>> gateway_hists(
    const node::Gateway& g) {
  const auto& a = g.metrics().admission;
  const auto& b = g.metrics().admission_batch;
  return {
      {"admission.authorize", &a.authorize_wall_s},
      {"admission.difficulty", &a.difficulty_wall_s},
      {"admission.conflict", &a.conflict_wall_s},
      {"admission.verify", &a.verify_wall_s},
      {"admission.lazy", &a.lazy_wall_s},
      {"admission.attach", &a.attach_wall_s},
      {"admission.observers", &a.observers_wall_s},
      {"admission.admit", &a.admit_wall_s},
      {"admission.batch_size", &b.batch_size},
      {"admission.read", &b.read_wall_s},
      {"admission.commit", &b.commit_wall_s},
      {"sync.rtt", &g.metrics().sync_rtt_sim_s},
      {"tangle.walk_steps", &g.metrics().tip_walk_steps},
  };
}

}  // namespace

double LayerTotals::sum(std::string_view prefix,
                        std::string_view suffix) const {
  double total = 0.0;
  for (const auto& [name, value] : counters)
    if (matches(name, prefix, suffix)) total += value;
  return total;
}

double LayerTotals::per_tx(std::string_view prefix,
                           std::string_view suffix) const {
  return accepted > 0.0 ? sum(prefix, suffix) / accepted : 0.0;
}

const HistDelta& LayerTotals::hist(const std::string& key) const {
  static const HistDelta kEmpty;
  const auto it = hists.find(key);
  return it == hists.end() ? kEmpty : it->second;
}

Window::Window(const obs::MetricsRegistry& registry,
               std::vector<const node::Gateway*> gateways)
    : registry_(registry), before_(registry.snapshot()) {
  for (const auto* g : gateways)
    for (const auto& [key, h] : gateway_hists(*g))
      marks_.emplace_back(key, mark(*h));
}

void Window::close(LayerTotals& into) const {
  const auto after = registry_.snapshot();
  std::map<std::string_view, double> then;
  for (const auto& m : before_.metrics)
    if (m.kind == obs::MetricKind::kCounter) then[m.name] = m.value;
  for (const auto& m : after.metrics) {
    if (m.kind != obs::MetricKind::kCounter) continue;
    const auto it = then.find(m.name);
    const double start = it == then.end() ? 0.0 : it->second;
    into.counters[m.name] += m.value >= start ? m.value - start : m.value;
  }
  for (const auto& [key, m] : marks_) add_since(into.hists[key], m);
}

double measured_us_per_tx(const LayerTotals& totals,
                          std::initializer_list<const char*> stems) {
  double seconds = 0.0;
  for (const char* stem : stems) seconds += totals.hist(stem).sum();
  return totals.accepted > 0.0 ? seconds * 1e6 / totals.accepted : 0.0;
}

void report_shared_layers(const LayerTotals& t, const LayerReplay& replay,
                          Report& report) {
  // Layers only one workload exercises; it overwrites its own after this
  // call, and the others report 0 (no work in that layer).
  for (const auto& [name, unit] :
       {std::pair{"crypto.verify_batch_us_per_sig", "us"},
        {"admission.read_queue_depth", "count"},
        {"tangle.select_us", "us"},
        {"node.write_p50_us", "us"},
        {"tangle.confirm_p50_sim_s", "sim_s"},
        {"tangle.confirm_p99_sim_s", "sim_s"},
        {"consensus.device_pow_p50_sim_s", "sim_s"},
        {"sync.recovery_sim_s", "sim_s"},
        {"storage.serialize_ms", "ms"},
        {"storage.deserialize_ms", "ms"},
        {"storage.replay_ms", "ms"},
        {"storage.replica_bytes", "B"}})
    report.layer(name, 0.0, unit);

  const double attempts = t.sum("process.pow.attempts", "");
  const double pow_attempts_per_tx = t.per_tx("process.pow.attempts", "");
  report.layer("crypto.sign_us", replay.sign_us(), "us");
  report.layer("crypto.verify_us", replay.verify_us(), "us");
  report.layer("crypto.verify_calls_per_tx",
               t.per_tx("process.crypto.verify_calls", ""), "count");
  report.layer("crypto.tx_id_computes_per_tx",
               t.per_tx("process.tangle.tx_id_computes", ""), "count");
  report.layer("consensus.pow_attempts_per_tx", pow_attempts_per_tx, "count");
  report.layer("consensus.pow_us_per_tx",
               pow_attempts_per_tx * replay.pow_us_per_attempt(), "us");
  report.layer("consensus.pow_blocks_per_attempt",
               attempts > 0.0 ? t.sum("process.pow.sha_blocks", "") / attempts
                              : 0.0,
               "ratio");
  report.layer("consensus.difficulty_mean", obs::mean(t.difficulties), "bits");

  for (const char* stage : {"authorize", "difficulty", "conflict", "verify",
                            "lazy", "attach", "observers", "admit"}) {
    const std::string stem = std::string("admission.") + stage;
    report.layer(stem + "_p50_us", t.hist(stem).quantile(0.5) * 1e6, "us");
  }
  const auto& read = t.hist("admission.read");
  const auto& commit = t.hist("admission.commit");
  report.layer("admission.read_ms_per_call", read.mean() * 1e3, "ms");
  report.layer("admission.commit_ms_per_call", commit.mean() * 1e3, "ms");
  report.layer("admission.batch_size_mean",
               t.hist("admission.batch_size").mean(), "count");
  double rejected = 0.0;
  for (const char* why : {"unauthorized", "difficulty", "pow", "conflict",
                          "signature", "other"})
    rejected += t.sum("gateway.", std::string(".admission.rejected_") + why);
  report.layer("admission.rejected", rejected, "count");

  report.layer("device.timeouts", t.sum("device.", ".timeouts"), "count");
  report.layer("device.failovers", t.sum("device.", ".failovers"), "count");

  report.layer("sync.syncs_sent", t.sum("gateway.", ".sync.summaries_sent"),
               "count");
  report.layer("sync.txs_applied", t.sum("gateway.", ".sync.txs_applied"),
               "count");
  report.layer("sync.fallbacks", t.sum("gateway.", ".sync.fallbacks"), "count");
  report.layer("sync.rtt_p50_sim_s", t.hist("sync.rtt").quantile(0.5), "sim_s");

  const auto& walk = t.hist("tangle.walk_steps");
  report.layer("tangle.walk_edges_per_select", walk.mean(), "count");

  report.layer("sim.msgs_per_tx", t.per_tx("net.sent", ""), "count");
  report.layer("sim.bytes_per_tx", t.per_tx("net.bytes_sent", ""), "B");
}

}  // namespace biot::perf
