// biot_perf: one run of one benchmark workload.
//
//   biot_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints '# ' lines (host metadata, sample counts, check failures) and, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 0 whenever a result line was printed; a failed
// output check is reported as "correct": false, not as a crash.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/log.h"
#include "workloads.h"

namespace {
using namespace biot;
using namespace biot::perf;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, b = 0, c = 0, d = 0;
  __get_cpuid(0x80000000u, &max_leaf, &b, &c, &d);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model = model.c_str();  // stop at the first NUL
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Commit of the working directory when it is a git checkout (read from
/// .git without running git), otherwise "unknown".
std::string git_sha() {
  const std::string head = read_line(".git/HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  if (std::string sha = read_line(".git/" + ref); !sha.empty()) return sha;
  std::ifstream packed(".git/packed-refs");
  for (std::string line; std::getline(packed, line);) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0)
      return line.substr(0, 40);
  }
  return "unknown";
}

std::string host_json() {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\""
      << ",\"compiler\":\"" << json_escape(__VERSION__) << "\""
      << ",\"build_type\":\"" << BIOT_PERF_BUILD_TYPE << "\""
      << ",\"git_sha\":\"" << json_escape(git_sha()) << "\"}";
  return out.str();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "biot_perf: %s\nusage: biot_perf --workload "
               "<factory|ingress_burst|tips_under_write|gateway_restart> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 120.0)
        usage("--seconds takes a number in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

/// Prints `metrics` as {"name": {"value": v, "unit": u}, ...}. run.py
/// checks the names and units against BENCHMARK.json.
std::string metrics_json(const std::map<std::string, Metric>& metrics,
                         Report& report) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    double value = metric.value;
    report.check(std::isfinite(value), "non-finite " + name);
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << '}';
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // The simulated fleet warns about expected protocol events (timeouts and
  // failovers while the restart workload's gateway is down); keep stderr
  // for real errors.
  set_log_level(LogLevel::kError);

  Tracer tracer;
  Report report;
  if (opt.workload == "factory") {
    run_factory(opt, tracer, report);
  } else if (opt.workload == "gateway_restart") {
    run_gateway_restart(opt, tracer, report);
  } else if (opt.workload == "ingress_burst") {
    run_ingress_burst(opt, tracer, report);
  } else if (opt.workload == "tips_under_write") {
    run_tips_under_write(opt, tracer, report);
  } else {
    usage("unknown workload");
  }

  const std::string host = host_json();
  const std::string metrics =
      metrics_json(opt.trace ? report.per_layer : report.end_to_end, report);
  if (opt.trace && !opt.trace_out.empty()) {
    std::ostringstream header;
    header << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
           << ",\"host\":" << host << '}';
    report.check(tracer.write_jsonl(opt.trace_out, header.str()),
                 "could not write spans to " + opt.trace_out);
  }

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# host %s\n", host.c_str());
  for (const auto& n : report.notes) std::printf("# %s\n", n.c_str());
  for (const auto& f : report.check_failures)
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  const bool correct = report.check_failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(
          std::max<std::uint64_t>(report.attempted, 1)),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
