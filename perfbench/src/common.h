// Shared pieces of the end-to-end benchmark: options, the per-run report,
// the in-memory span recorder, rep loop, and the helpers that turn the
// program's own obs instruments into per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "tangle/tangle.h"

namespace biot::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // JSON-lines span dump, written at exit
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark run reports. `attempted`/`failed` count the
/// workload's operations; a failed output check makes the run incorrect.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;  // printed as '# ' lines before the result

  void check(bool ok, const std::string& what);
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Microseconds of `seconds` per transaction (guarding txs == 0).
inline double us_per_tx(double seconds, std::uint64_t txs) {
  return seconds * 1e6 / static_cast<double>(txs ? txs : 1);
}

/// In-memory span recorder. Spans carry name, start, end, parent span and a
/// per-request id; they stay in a preallocated vector and are written out
/// once at exit. A disabled tracer records nothing (one branch per span).
/// Single-threaded: every span is opened by the benchmark's main thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  // time covered by direct children
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  Tracer();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span that closes when the returned scope is destroyed.
  [[nodiscard]] Scope span(const char* name, std::uint64_t request) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  std::size_t count(std::string_view name) const;
  /// Sum / mean of self time (duration minus direct children), in µs.
  double total_self_us(std::string_view name) const;
  double mean_self_us(std::string_view name) const;

  /// One JSON object per line: a header line, then every span.
  bool write_jsonl(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  bool enabled_ = false;
  Clock::time_point epoch_;
};

/// Runs `rep(i)` until `opt.seconds` of wall time have passed and at least
/// `min_reps` reps ran. In a traced run reps alternate untraced (even i)
/// and traced (odd i), so the trace overhead compares like with like.
template <class Rep>
void repeat(const Options& opt, Tracer& tracer, int min_reps, Rep&& rep) {
  const auto t0 = Clock::now();
  if (opt.trace && min_reps < 2) min_reps = 2;
  for (int i = 0; i < min_reps || seconds_since(t0) < opt.seconds; ++i) {
    tracer.set_enabled(opt.trace && i % 2 == 1);
    rep(i);
  }
  tracer.set_enabled(false);
}

/// Per-rep samples behind the end-to-end metrics every workload reports.
/// A workload adds its operations to `attempted`, `ok` and `op_us` during a
/// rep; end_rep() files them under that rep and its input (the index of the
/// seeded input the rep replayed) and clears them.
struct EndToEnd {
  std::vector<double> setup_s;  // one per rep
  std::uint64_t attempted = 0;  // operations of the current rep
  std::uint64_t ok = 0;
  std::vector<double> op_us;  // one per primary operation of the current rep

  struct Rep {
    bool traced = false;
    double host_us_per_tx = 0.0;
    double op_p50_us = 0.0;
    double op_p90_us = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    int input = 0;
  };
  std::vector<Rep> reps;
  std::size_t ops = 0;  // primary operations over every rep

  void end_rep(bool traced, double rep_host_us_per_tx, int input = 0);
};

/// Fills setup_s, peak_rss_mb, ok_frac, host_us_per_tx, op_p50_us and
/// op_p90_us (medians over the untraced reps of each rep's value); in a
/// traced run, obs.trace_overhead_frac. Reps replay the run's seeded
/// inputs, so `attempted` and `failed` count each input's operations once,
/// and reps of one input that disagree on them fail the run.
void finish_end_to_end(const Options& opt, const EndToEnd& e2e,
                       const std::string& op_name, Report& report);

double median(std::vector<double> xs);
double peak_rss_mb();

/// Bucket-count window over one or more histograms with identical bounds:
/// quantiles of only the observations made between snapshot and add().
class HistDelta {
 public:
  /// Records `h`'s current state as the window start.
  static std::vector<std::uint64_t> snapshot(const obs::Histogram& h);
  /// Adds the observations `h` gained since `before` to the window.
  void add(const obs::Histogram& h, const std::vector<std::uint64_t>& before,
           double sum_before);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// obs::Histogram::quantile's estimate over the window; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A histogram paired with its window start.
struct HistMark {
  const obs::Histogram* hist = nullptr;
  std::vector<std::uint64_t> buckets;
  double sum = 0.0;
};
HistMark mark(const obs::Histogram& h);
void add_since(HistDelta& delta, const HistMark& m);

/// Attaches the process-wide work counters (pow_counters,
/// ed25519_verify_calls, tx_id_computes) under "process.".
void attach_process_counters(obs::MetricsRegistry& registry);

/// Weight-`weight` confirmation latency (simulated seconds) of every data
/// transaction whose timestamp lies in [from, to): the arrival of the
/// (weight-1)-th transaction of its future cone minus its timestamp.
/// `unconfirmed` counts those whose cone never got that large.
std::vector<double> confirmation_latencies(const tangle::Tangle& tangle,
                                           std::size_t weight, TimePoint from,
                                           TimePoint to,
                                           std::size_t* unconfirmed);

/// Single-threaded costs of the device-side layers, measured by replaying
/// them under spans on the run's own transactions (Miner::mine at each
/// transaction's parents and difficulty, Identity::sign of its signing
/// bytes, ed25519_verify of its real signature), accumulated over replays.
class LayerReplay {
 public:
  /// Replays up to `max_samples` evenly spaced transactions of `txs`.
  void run(const std::vector<tangle::Transaction>& txs, Tracer& tracer,
           std::uint64_t seed, std::size_t max_samples);

  double pow_us_per_attempt() const {
    return attempts_ > 0.0 ? pow_us_ / attempts_ : 0.0;
  }
  double sign_us() const { return samples_ ? sign_us_ / samples_ : 0.0; }
  double verify_us() const { return samples_ ? verify_us_ / samples_ : 0.0; }
  bool signatures_valid() const { return signatures_valid_; }

 private:
  double pow_us_ = 0.0, attempts_ = 0.0, sign_us_ = 0.0, verify_us_ = 0.0;
  double samples_ = 0.0;
  bool signatures_valid_ = true;
};

/// Per-tx layer work inside one workload's timed region: counts costed by
/// the replays, plus layer time the program or the benchmark measured there.
struct TimedLayerWork {
  double pow_attempts = 0.0;
  double signs = 0.0;
  double measured_us = 0.0;  // e.g. verify and attach stage time
};

/// host_us_per_tx minus the timed region's replayed pow and sign costs and
/// its measured layer time; the split is noted in `report`, and a negative
/// remainder fails the run.
double unaccounted_us_per_tx(double host_us_per_tx, const LayerReplay& costs,
                             const TimedLayerWork& work, Report& report);

}  // namespace biot::perf
