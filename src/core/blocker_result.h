// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Shared result/statistics types for the blocker-selection algorithms.

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace vblock {

/// Run statistics shared by the greedy-family algorithms.
struct GreedyRunStats {
  /// Selection rounds completed (budget rounds unless the deadline fired).
  uint32_t rounds_completed = 0;
  /// Replacement swaps performed (GreedyReplace only).
  uint32_t replacements = 0;
  /// True if the cooperative deadline ended the run early.
  bool timed_out = false;
  /// Wall-clock seconds of the selection run. For the *WithEngine entry
  /// points this excludes the pool build the caller paid for — see
  /// pool_build_seconds.
  double seconds = 0;
  /// Wall-clock seconds spent building the θ-sample pool (engine Build).
  /// Filled by whichever AG/GR call built the engine (core/greedy.h); 0
  /// when the pool was already warm — a cache hit, or a batch GR member
  /// after the first. Reported separately so warm-vs-cold wins are visible
  /// per-request (`pool_ms=` on the wire).
  double pool_build_seconds = 0;
  /// Wall-clock seconds spent re-deriving a warm pool that was carried
  /// across graph updates (core/greedy.h SolveGreedy); 0 when the pool was
  /// current. Part of `seconds`.
  double migrate_seconds = 0;
  /// Best Δ chosen in each completed selection round (diagnostics).
  std::vector<double> round_best_delta;
  /// Every blocker commit in chronological order: for BG/AG (and the
  /// facade's heuristics) the pick per round — identical to the returned
  /// blocker list — and for GR the phase-1 picks followed by each phase-2
  /// replacement that actually swapped a vertex in. Because a greedy pick
  /// depends only on the picks before it (never on the remaining budget),
  /// the trace of one max-budget BG/AG run replays bit-exactly as the
  /// blocker set of every smaller budget: prefix k of the trace IS the
  /// budget-k result. core/batch_solver.h builds its budget sweeps on this.
  std::vector<VertexId> selection_trace;
};

/// A selected blocker set over *unified* vertex ids, plus run statistics.
/// The solver facade (core/solver.h) maps ids back to the original graph.
struct BlockerSelection {
  std::vector<VertexId> blockers;
  GreedyRunStats stats;
};

}  // namespace vblock
