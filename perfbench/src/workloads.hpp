// The four perfbench workloads. Each one generates its inputs from
// o.seed, sets up setup_count(o) times (setup_s is the median), measures for
// o.seconds, checks every output against a reference, and fills `rep`
// with its end-to-end metrics -- or, when o.trace is set, its per-layer
// metrics from the span trace.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace pb {

void run_paper_functional(const Options& o, Report& rep);
void run_paper_cycle(const Options& o, Report& rep);
void run_sweep_dse(const Options& o, Report& rep);
void run_service_mix(const Options& o, Report& rep);

/// Shared end of a traced run: trace.coverage (see coverage()),
/// trace.overhead_pct, and the span file in o.work_dir.
void finish_trace(const Options& o, Report& rep,
                  const std::vector<Span>& spans, double lanes,
                  bool pool_roots, double overhead_pct);

}  // namespace pb
