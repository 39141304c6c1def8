// The four benchmark workloads. Each generates its inputs from opt.seed,
// measures for opt.seconds, runs its output checks, and fills `report`
// (README.md documents shapes, loops and the metric mapping).
#pragma once

#include "common.h"

namespace biot::perf {

void run_factory(const Options& opt, Tracer& tracer, Report& report);
void run_gateway_restart(const Options& opt, Tracer& tracer, Report& report);
void run_ingress_burst(const Options& opt, Tracer& tracer, Report& report);
void run_tips_under_write(const Options& opt, Tracer& tracer, Report& report);

}  // namespace biot::perf
