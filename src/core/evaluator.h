// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Final spread evaluation of a blocker set (paper §VI: results are reported
// as expected spreads computed with 10^5-round Monte-Carlo, or exactly on
// the small Table-V/VI extracts).

#pragma once

#include <cstdint>
#include <vector>

#include "common/sampler_kind.h"
#include "graph/graph.h"

namespace vblock {

/// Parameters for EvaluateSpread.
struct EvaluationOptions {
  /// Try the exact world-enumeration first; fall back to Monte-Carlo when
  /// the instance has too many uncertain edges.
  bool prefer_exact = false;
  /// Uncertain-edge cap for the exact path.
  int max_uncertain_edges = 20;
  /// Monte-Carlo rounds for the sampling path (paper's evaluation: 10^5).
  uint32_t mc_rounds = 100000;
  /// RNG seed for the sampling path.
  uint64_t seed = 0x5eedf00d;
  /// Most process-executor slots for the sampling path (1 = inline).
  uint32_t threads = 1;
  /// Live-edge drawing strategy for the sampling path
  /// (common/sampler_kind.h).
  SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
};

/// E(S, G[V\B]) on the *original* instance: expected number of active
/// vertices, seeds included (matches the paper's reported numbers, which
/// floor at |S|).
double EvaluateSpread(const Graph& g, const std::vector<VertexId>& seeds,
                      const std::vector<VertexId>& blockers,
                      const EvaluationOptions& options = {});

}  // namespace vblock
