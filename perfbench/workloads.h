// Copyright (c) the vblock authors. Licensed under the MIT license.

#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Outcome of one benchmark run: the printed metrics plus the correctness
/// ledger and free-form notes (printed before the result line).
struct RunResult {
  MetricList metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;
};

/// Runs one workload: repeated set-up, the measured window(s), the
/// correctness gate, and the post-window probes. With args.trace the
/// metrics are the per-layer ones, otherwise the end-to-end ones. Spans go
/// to `log` (null when tracing is off).
RunResult RunWorkload(const WorkloadSpec& spec, const Args& args,
                      SpanLog* log);

/// Per-layer probes outside the window: replays `queries` through the
/// public layer calls (UnifySeeds, SpreadDecreaseEngine, a mirror
/// SamplePool with the engine's options, DominatorWorkspace, GraphRegistry
/// Apply) and sets the graph/sampling/domtree/core metrics. `answers` are
/// the served answers of `queries` (the GR blockers the unblock probe
/// visits).
void ReplayLayers(const WorkloadSpec& spec, const std::vector<Query>& queries,
                  const std::vector<std::vector<VertexId>>& answers,
                  const DeltaPair& delta, const vblock::GraphLoadOptions& load,
                  SpanLog* log, MetricList* metrics,
                  std::vector<std::string>* notes);

}  // namespace perfbench
