// The traced run: the per-layer breakdown of one workload.
#pragma once

#include <map>
#include <string>

#include "workload.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of a traced run.  `window` is the served window, the
/// same untraced run_table calls an untraced run times.  Afterwards a
/// sample of streams is served one frame at a time through
/// AdaScalePipeline::process; for each frame the layer calls the pipeline
/// made are re-issued on the same input and scale and recorded as spans,
/// which are written to `trace_out` (Chrome trace-event JSON) when the run
/// ends.  Isolated conv timings and the compute and bandwidth probes
/// complete the breakdown.
std::map<std::string, Metric> traced_metrics(Setup* s,
                                             const ServeResult& window,
                                             const std::string& trace_out);

}  // namespace perfbench
