// Per-layer accounting from the program's existing instruments: counters
// through an obs::MetricsRegistry snapshot, histograms through bucket
// windows. A Window brackets one timed region; LayerTotals accumulates the
// windows of every rep and renders the shared per-layer metrics.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "node/gateway.h"

namespace biot::perf {

struct LayerTotals {
  double accepted = 0.0;  // transactions the timed regions accepted
  double host_s = 0.0;    // wall time of the timed regions
  std::map<std::string, double> counters;  // summed per-name deltas
  std::map<std::string, HistDelta> hists;  // keyed by per-layer stem
  std::vector<double> difficulties;        // claimed PoW difficulty per tx

  /// Sum of accumulated deltas of counters named prefix*suffix.
  double sum(std::string_view prefix, std::string_view suffix) const;
  double per_tx(std::string_view prefix, std::string_view suffix) const;
  /// Mean host time per accepted transaction over every timed region, the
  /// base the unaccounted remainder is taken from (the same reps as the
  /// counter and histogram windows).
  double host_us_per_tx() const {
    return accepted > 0.0 ? host_s * 1e6 / accepted : 0.0;
  }
  const HistDelta& hist(const std::string& key) const;
};

/// Opens at construction; close() adds the counter and histogram deltas
/// since then. A counter that went backwards was reset by a gateway
/// restart: its post-reset value is taken as the delta.
class Window {
 public:
  Window(const obs::MetricsRegistry& registry,
         std::vector<const node::Gateway*> gateways);
  void close(LayerTotals& into) const;

 private:
  const obs::MetricsRegistry& registry_;
  obs::RegistrySnapshot before_;
  std::vector<std::pair<std::string, HistMark>> marks_;
};

/// Per-tx wall time the program's own stage histograms measured in the
/// timed regions, summed over `stems` (e.g. "admission.verify").
double measured_us_per_tx(const LayerTotals& totals,
                          std::initializer_list<const char*> stems);

/// Writes the per-layer metrics every workload shares (crypto counters,
/// pow, admission stages and batches, rejections, device, sync, sim
/// traffic, and the replayed sign/verify/pow costs).
void report_shared_layers(const LayerTotals& totals, const LayerReplay& replay,
                          Report& report);

}  // namespace biot::perf
