#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <queue>
#include <unordered_set>

#include "consensus/pow.h"
#include "crypto/ed25519.h"
#include "crypto/identity.h"
#include "obs/stats.h"

namespace biot::perf {

void Report::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 18); }

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_) return;
  auto& spans = tracer_->spans_;
  index_ = static_cast<std::int32_t>(spans.size());
  Span s;
  s.name = name;
  s.parent = tracer_->open_;
  s.request = request;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - tracer_->epoch_)
                   .count();
  spans.push_back(s);
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  auto& spans = tracer_->spans_;
  Span& s = spans[static_cast<std::size_t>(index_)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - tracer_->epoch_)
                 .count();
  if (s.parent >= 0)
    spans[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  tracer_->open_ = s.parent;
}

std::size_t Tracer::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

double Tracer::total_self_us(std::string_view name) const {
  double ns = 0.0;
  for (const auto& s : spans_)
    if (name == s.name)
      ns += static_cast<double>(s.end_ns - s.start_ns - s.child_ns);
  return ns / 1e3;
}

double Tracer::mean_self_us(std::string_view name) const {
  const std::size_t n = count(name);
  return n ? total_self_us(name) / static_cast<double>(n) : 0.0;
}

bool Tracer::write_jsonl(const std::string& path,
                         const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header << '\n';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- End-to-end ------------------------------------------------------------

double median(std::vector<double> xs) {
  return obs::percentile(std::move(xs), 50);
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss survives execve, so it would report the launcher's RSS when
  // that is larger (run.py's Python is).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void EndToEnd::end_rep(bool traced, double rep_host_us_per_tx, int input) {
  reps.push_back(Rep{traced, rep_host_us_per_tx, obs::percentile(op_us, 50),
                     obs::percentile(op_us, 90), attempted, ok, input});
  ops += op_us.size();
  op_us.clear();
  attempted = ok = 0;
}

void finish_end_to_end(const Options& opt, const EndToEnd& e2e,
                       const std::string& op_name, Report& report) {
  std::vector<double> untraced, traced, op_p50, op_p90;
  for (const auto& rep : e2e.reps) {
    (rep.traced ? traced : untraced).push_back(rep.host_us_per_tx);
    if (rep.traced) continue;
    op_p50.push_back(rep.op_p50_us);
    op_p90.push_back(rep.op_p90_us);
  }
  const double host_us = median(untraced);
  std::map<int, const EndToEnd::Rep*> first_of_input;
  std::uint64_t attempted = 0, ok = 0;
  for (const auto& rep : e2e.reps) {
    const auto [it, fresh] = first_of_input.emplace(rep.input, &rep);
    if (fresh) {
      attempted += rep.attempted;
      ok += rep.ok;
    }
    report.check(rep.attempted == it->second->attempted &&
                     rep.ok == it->second->ok,
                 "same input gave different operation counts across reps");
  }
  report.attempted += attempted;
  report.failed += attempted - ok;
  const double ok_frac =
      attempted ? static_cast<double>(ok) / static_cast<double>(attempted)
                : 0.0;
  report.check(attempted > 0, "workload attempted no operation");

  report.end_to_end["setup_s"] = {median(e2e.setup_s), "s"};
  report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  report.end_to_end["ok_frac"] = {ok_frac, "ratio"};
  report.end_to_end["host_us_per_tx"] = {host_us, "us"};
  report.end_to_end["op_p50_us"] = {median(op_p50), "us"};
  report.end_to_end["op_p90_us"] = {median(op_p90), "us"};
  if (opt.trace) {
    const double overhead =
        host_us > 0.0 ? median(traced) / host_us - 1.0 : 0.0;
    report.layer("obs.trace_overhead_frac", overhead, "ratio");
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "reps=%zu (traced %zu) setup_s.n=%zu op=%s op.n=%zu "
                "inputs=%zu attempted=%llu ok=%llu",
                e2e.reps.size(), traced.size(), e2e.setup_s.size(),
                op_name.c_str(), e2e.ops, first_of_input.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(ok));
  report.note(line);
  if (!untraced.empty()) {
    std::snprintf(line, sizeof line,
                  "host_us_per_tx over untraced reps: min %.1f p25 %.1f "
                  "median %.1f p75 %.1f max %.1f",
                  *std::min_element(untraced.begin(), untraced.end()),
                  obs::percentile(untraced, 25), host_us,
                  obs::percentile(untraced, 75),
                  *std::max_element(untraced.begin(), untraced.end()));
    report.note(line);
  }
}

// ---- Histogram windows -----------------------------------------------------

std::vector<std::uint64_t> HistDelta::snapshot(const obs::Histogram& h) {
  std::vector<std::uint64_t> out(h.bounds().size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = h.bucket_count(i);
  return out;
}

void HistDelta::add(const obs::Histogram& h,
                    const std::vector<std::uint64_t>& before,
                    double sum_before) {
  if (counts_.empty()) {
    bounds_ = h.bounds();
    counts_.assign(bounds_.size() + 1, 0);
  }
  if (h.bounds() != bounds_) return;  // never mixes layouts
  const std::uint64_t count_before = count_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t now = h.bucket_count(i);
    const std::uint64_t then = i < before.size() ? before[i] : 0;
    if (now > then) {
      counts_[i] += now - then;
      count_ += now - then;
    }
  }
  if (count_ == count_before) return;  // nothing observed in this window
  sum_ += h.sum() - sum_before;
  // A bucket window keeps no min or max of its own; the histogram's
  // lifetime range contains the window's.
  min_ = count_before == 0 ? h.min() : std::min(min_, h.min());
  max_ = count_before == 0 ? h.max() : std::max(max_, h.max());
}

double HistDelta::quantile(double q) const {
  // obs::Histogram::quantile over the window's bucket counts: rank in
  // [0, n-1], linear interpolation inside the winning bucket, the first and
  // overflow buckets capped by the observed min and max.
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t in_bucket = counts_[i];
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(seen + in_bucket)) {
      const double lower = i == 0 ? min_ : bounds_[i - 1];
      const double upper = i == bounds_.size() ? max_ : bounds_[i];
      const double frac = in_bucket == 1
                              ? 0.5
                              : (rank - static_cast<double>(seen)) /
                                    static_cast<double>(in_bucket - 1);
      const double v = lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, min_, max_);
    }
    seen += in_bucket;
  }
  return max_;
}

HistMark mark(const obs::Histogram& h) {
  return HistMark{&h, HistDelta::snapshot(h), h.sum()};
}

void add_since(HistDelta& delta, const HistMark& m) {
  delta.add(*m.hist, m.buckets, m.sum);
}

// ---- Counters --------------------------------------------------------------

void attach_process_counters(obs::MetricsRegistry& registry) {
  registry.attach("process.pow.attempts", &consensus::pow_counters().attempts);
  registry.attach("process.pow.sha_blocks",
                  &consensus::pow_counters().sha_blocks);
  registry.attach("process.crypto.verify_calls",
                  &crypto::ed25519_verify_calls());
  registry.attach("process.tangle.tx_id_computes", &tangle::tx_id_computes());
}

// ---- Confirmation latency --------------------------------------------------

std::vector<double> confirmation_latencies(const tangle::Tangle& tangle,
                                           std::size_t weight, TimePoint from,
                                           TimePoint to,
                                           std::size_t* unconfirmed) {
  std::vector<double> out;
  std::size_t missing = 0;
  const std::size_t need = weight - 1;  // weight = 1 + approvers in the cone
  using Entry = std::pair<std::size_t, const tangle::TxRecord*>;
  for (const auto& id : tangle.arrival_order()) {
    const tangle::TxRecord* rec = tangle.find(id);
    if (rec->tx.type != tangle::TxType::kData) continue;
    if (rec->tx.timestamp < from || rec->tx.timestamp >= to) continue;
    // Arrival order is topological, so popping the future cone in
    // order_pos order visits it in arrival order.
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
    std::unordered_set<const tangle::TxRecord*> seen;
    auto push_approvers = [&](const tangle::TxRecord* r) {
      for (const auto& a : r->approvers) {
        const tangle::TxRecord* child = tangle.find(a);
        if (child && seen.insert(child).second)
          frontier.emplace(child->order_pos, child);
      }
    };
    push_approvers(rec);
    std::size_t popped = 0;
    const tangle::TxRecord* last = nullptr;
    while (popped < need && !frontier.empty()) {
      last = frontier.top().second;
      frontier.pop();
      ++popped;
      push_approvers(last);
    }
    if (popped == need && last)
      out.push_back(last->arrival - rec->tx.timestamp);
    else
      ++missing;
  }
  if (unconfirmed) *unconfirmed = missing;
  return out;
}

// ---- Layer replays ---------------------------------------------------------

void LayerReplay::run(const std::vector<tangle::Transaction>& txs,
                      Tracer& tracer, std::uint64_t seed,
                      std::size_t max_samples) {
  if (txs.empty() || !tracer.enabled()) return;
  const auto signer = crypto::Identity::deterministic(seed ^ 0x5151ull);
  consensus::Miner miner(seed << 20);
  const std::size_t stride = std::max<std::size_t>(1, txs.size() / max_samples);
  const double pow_us0 = tracer.total_self_us("consensus.pow");
  const double sign_us0 = tracer.total_self_us("crypto.sign");
  const double verify_us0 = tracer.total_self_us("crypto.verify");
  for (std::size_t i = 0; i < txs.size(); i += stride) {
    const auto& tx = txs[i];
    const Bytes message = tx.signing_bytes();
    {
      const auto span = tracer.span("consensus.pow", i);
      const auto mined = miner.mine(tx.parent1, tx.parent2, tx.difficulty);
      if (mined) attempts_ += static_cast<double>(mined->attempts);
    }
    {
      const auto span = tracer.span("crypto.sign", i);
      // Out-of-line call in another library: not elided even if unused.
      [[maybe_unused]] const auto sig = signer.sign(message);
    }
    bool valid = false;
    {
      const auto span = tracer.span("crypto.verify", i);
      valid = crypto::ed25519_verify(tx.sender, message, tx.signature);
    }
    signatures_valid_ = signatures_valid_ && valid;
    ++samples_;
  }
  pow_us_ += tracer.total_self_us("consensus.pow") - pow_us0;
  sign_us_ += tracer.total_self_us("crypto.sign") - sign_us0;
  verify_us_ += tracer.total_self_us("crypto.verify") - verify_us0;
}

double unaccounted_us_per_tx(double host_us_per_tx, const LayerReplay& costs,
                             const TimedLayerWork& work, Report& report) {
  const double pow = work.pow_attempts * costs.pow_us_per_attempt();
  const double sign = work.signs * costs.sign_us();
  const double unaccounted = host_us_per_tx - pow - sign - work.measured_us;
  char line[200];
  std::snprintf(line, sizeof line,
                "us/tx: host %.1f = replayed pow %.1f + replayed sign %.1f + "
                "measured layers %.1f + unaccounted %.1f",
                host_us_per_tx, pow, sign, work.measured_us, unaccounted);
  report.note(line);
  report.check(unaccounted >= 0.0,
               "replayed layer costs exceed the measured host time per tx");
  return unaccounted;
}

}  // namespace biot::perf
