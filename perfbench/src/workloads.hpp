#pragma once
// The three workloads. Each fills `report`: the end-to-end metrics
// when untraced, the per-layer metrics when traced.

#include "bench.hpp"

namespace perfbench {

/// fig7-uvon (uv_on) and eie-uvoff (uv_off).
void run_sim_workload(const Args& args, bool uv_on,
                      Clock::time_point process_start, Report& report);

/// serve-mix.
void run_serve_workload(const Args& args, Clock::time_point process_start,
                        Report& report);

/// The serving-tier metrics, as 0, for workloads that do not serve.
void add_not_serving(Report& report);

/// The metrics only the traced fig7-uvon run measures (BatchRunner
/// scaling, the Fig. 7 reductions), as 0, for the other workloads.
void add_not_fig7(Report& report);

}  // namespace perfbench
