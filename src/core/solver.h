// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// High-level IMIN solver facade — the library's primary entry point.
//
// Callers hand over the original instance (graph, seed set, budget) and an
// algorithm choice; the facade validates the query, performs the multi-seed
// unification, runs the selected algorithm, and maps the blockers back to
// original vertex ids. AG and GR run through SolveGreedy (core/greedy.h) on
// an empty WarmEntry — the same path the batch solver and the query
// service run on their warm entries, so all three answer identically.
//
//   SolverOptions opts;
//   opts.algorithm = Algorithm::kGreedyReplace;
//   opts.budget = 20;
//   auto r = SolveImin(graph, seeds, opts);
//   VBLOCK_CHECK(r.ok());
//   double spread = EvaluateSpread(graph, seeds, r->blockers);
//
// Many queries against one graph are better served by the amortizing batch
// entry point `SolveIminBatch` (core/batch_solver.h).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/sampler_kind.h"
#include "common/status.h"
#include "core/blocker_result.h"
#include "graph/graph.h"
#include "graph/vertex_order.h"
#include "obs/solve_trace.h"
#include "sampling/sample_reuse.h"

namespace vblock {

/// Blocker-selection algorithms available through the facade.
enum class Algorithm {
  kRandom,          // RA   — random non-seeds
  kOutDegree,       // OD   — highest out-degree
  kPageRank,        // PR   — highest PageRank (extra baseline, ours)
  kBetweenness,     // BC   — highest betweenness (cited baseline [31])
  kBaselineGreedy,  // BG   — Algorithm 1 (greedy + Monte-Carlo)
  kAdvancedGreedy,  // AG   — Algorithm 3 (greedy + sampled dominator trees)
  kGreedyReplace,   // GR   — Algorithm 4 (out-neighbors first + replacement)
};

/// Short display name ("RA", "OD", "PR", "BC", "BG", "AG", "GR").
const char* AlgorithmName(Algorithm algorithm);

/// Unified knobs; each algorithm reads the subset it understands.
struct SolverOptions {
  Algorithm algorithm = Algorithm::kGreedyReplace;
  /// Budget b (maximum number of blockers).
  uint32_t budget = 10;
  /// Sampled graphs θ per Algorithm-2 call (AG / GR).
  uint32_t theta = 10000;
  /// Monte-Carlo rounds r per estimate (BG).
  uint32_t mc_rounds = 10000;
  /// Base RNG seed (all stochastic algorithms).
  uint64_t seed = 1;
  /// Worker threads for sampling passes (AG / GR).
  uint32_t threads = 1;
  /// Cooperative deadline in seconds, 0 = none (BG / AG / GR).
  double time_limit_seconds = 0;
  /// Sample-pool reuse policy across greedy rounds (AG / GR): kResample
  /// re-draws affected samples with fresh coins (paper-faithful), kPrune
  /// keeps the θ live-edge worlds fixed and re-prunes them (fastest). See
  /// docs/DESIGN.md §5.
  SampleReuse sample_reuse = SampleReuse::kResample;
  /// Live-edge drawing strategy for every stochastic traversal (BG / AG /
  /// GR): kGeometricSkip (default) jumps over the probability-grouped
  /// adjacency, kPerEdgeCoin flips one coin per edge. Same distribution,
  /// different RNG consumption — results differ between kinds for a fixed
  /// seed but are fully deterministic within one. See docs/DESIGN.md §7.
  SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
  /// Internal vertex layout of the unified instance (BG / AG / GR):
  /// kOriginal keeps the historical ids; kDegreeDesc / kBfsFromRoot
  /// relabel for cache locality (graph/vertex_order.h). External ids are
  /// unchanged either way; like sampler_kind, a non-default order visits
  /// different sampled worlds for the same seed. See docs/DESIGN.md §10.
  VertexOrder vertex_order = VertexOrder::kOriginal;
  /// Collect a per-stage SolveTrace (obs/solve_trace.h) into
  /// SolverResult::trace. Off (default) the instrumentation compiles to
  /// branch-on-null; on or off, result bits are identical — tracing never
  /// feeds back into the solve (docs/DESIGN.md §12).
  bool trace = false;
};

/// Facade result: blockers in *original* vertex ids. stats.selection_trace
/// is likewise mapped back to original ids.
struct SolverResult {
  std::vector<VertexId> blockers;
  GreedyRunStats stats;
  /// Per-stage timing attribution; non-null iff SolverOptions::trace.
  std::shared_ptr<obs::SolveTrace> trace;
};

/// Checks an IMIN query against the graph it targets. Non-OK when:
///  - the seed set is empty                        (InvalidArgument)
///  - a seed id is >= g.NumVertices()              (OutOfRange)
///  - a seed id occurs more than once              (InvalidArgument)
///  - budget exceeds the number of non-seed        (InvalidArgument)
///    vertices — the algorithms would silently return fewer blockers than
///    asked for. budget == #non-seeds stays valid: blocking every
///    candidate is a legitimate (if degenerate) query.
/// Shared by SolveImin and the batch solver so both reject identically.
Status ValidateIminQuery(const Graph& g, const std::vector<VertexId>& seeds,
                         uint32_t budget);

/// Solves the IMIN instance (G, S, b) with the chosen algorithm. Returns
/// the ValidateIminQuery error instead of silently clamping malformed
/// input.
Result<SolverResult> SolveImin(const Graph& g,
                               const std::vector<VertexId>& seeds,
                               const SolverOptions& options);

}  // namespace vblock
