// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Algorithms 3 (AdvancedGreedy) and 4 (GreedyReplace): two selection loops
// over one Algorithm-2 scoring engine (core/spread_decrease_engine.h).
//
// AdvancedGreedy runs the greedy framework of Algorithm 1, but each round
// scores *all* candidates at once from sampled graphs + dominator trees,
// giving O(b·θ·m·α(m,n)) instead of O(b·n·r·m).
//
// GreedyReplace is the paper's highest-quality heuristic. With an
// unlimited budget the optimal blockers are exactly the seed's
// out-neighbors, yet plain greedy may spend budget elsewhere (paper §V-D).
// GR therefore (1) greedily picks min(dout(s), b) out-neighbors of the
// seed as initial blockers, then (2) walks them in reverse insertion
// order, tentatively un-blocks each one and re-scores to find the globally
// best replacement; it early-terminates as soon as a removed blocker is
// re-selected (no vertex beats it).
//
// SolveGreedy is the one AG/GR solve path over the original graph: the
// SolveImin facade (cold), the batch solver's GR groups (one entry
// restored between members) and the query service (entries from its
// PoolCache) all run it on a WarmEntry, creating only what the entry
// lacks.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/timer.h"
#include "core/blocker_result.h"
#include "core/solver.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "core/unified_instance.h"
#include "graph/graph.h"

namespace vblock::obs {
class SolveTrace;
}  // namespace vblock::obs

namespace vblock {

/// Parameters for Algorithms 3 and 4.
struct GreedyOptions {
  /// Budget b.
  uint32_t budget = 10;
  /// Sampled graphs θ in the pool (paper default 10^4).
  uint32_t theta = 10000;
  /// Base RNG seed.
  uint64_t seed = 1;
  /// Most process-executor slots per sampling pass (1 = inline).
  uint32_t threads = 1;
  /// Cooperative deadline in seconds (0 = none). Honored inside the
  /// Algorithm-2 θ-loop, not just between rounds.
  double time_limit_seconds = 0;
  /// Sample-pool maintenance policy across rounds (see
  /// sampling/sample_pool.h). Block prunes the stored worlds in both
  /// modes, so AG picks the same blockers under either; at an Unblock
  /// kResample re-draws every sample, kPrune re-prunes its fixed worlds.
  SampleReuse sample_reuse = SampleReuse::kResample;
  /// Live-edge drawing strategy (common/sampler_kind.h): geometric skips
  /// over the probability-grouped adjacency (default) or per-edge coins.
  SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
  /// Optional triggering model (paper §V-E): when set, live-edge samples
  /// are drawn from this model (e.g. LtTriggeringModel) instead of the IC
  /// per-edge coins. Not owned; must outlive the call.
  const TriggeringModel* triggering_model = nullptr;
  /// Optional per-solve trace sink (obs/solve_trace.h). Not owned; null
  /// (default) compiles the instrumentation to branch-on-null. Never
  /// affects result bits.
  obs::SolveTrace* trace = nullptr;
};

/// Runs Algorithm 3 on a unified single-seed instance over a persistent
/// SamplePool: the θ samples are drawn once and incrementally updated as
/// blockers accumulate. Ties in Δ are broken toward the smaller vertex id
/// (deterministic; results are identical for any thread count at a fixed
/// (seed, sample_reuse, sampler_kind)).
BlockerSelection AdvancedGreedy(const Graph& g, VertexId root,
                                const GreedyOptions& options);

/// Runs Algorithm 4 on a unified single-seed instance. Returns at most
/// min(dout(root), budget) blockers — when the budget exceeds the root's
/// out-degree, blocking every out-neighbor already reduces the spread to its
/// minimum (only the root active) and extra blockers would be no-ops, so the
/// surplus budget is intentionally left unused (the problem asks for *at
/// most* b blockers).
BlockerSelection GreedyReplace(const Graph& g, VertexId root,
                               const GreedyOptions& options);

/// The selection loops alone, against an already-Build()-finished engine
/// whose blocked mask is all-clear. Results are bit-identical to the
/// standalone calls above for the engine's (theta, seed, sample_reuse,
/// sampler_kind). On return the engine's mask holds whatever the run left
/// blocked; SpreadDecreaseEngine::Restore returns it to the built state.
/// stats.seconds covers the selection only and pool_build_seconds is 0.
BlockerSelection AdvancedGreedyWithEngine(SpreadDecreaseEngine* engine,
                                          uint32_t budget,
                                          const Deadline& deadline,
                                          obs::SolveTrace* trace);
BlockerSelection GreedyReplaceWithEngine(SpreadDecreaseEngine* engine,
                                         uint32_t budget,
                                         const Deadline& deadline,
                                         obs::SolveTrace* trace);

/// One warmed solve context: the unified instance and an engine whose pool
/// was built against inst->graph. Heap-allocated members: the engine holds
/// references into *inst, so neither may move. The query service caches
/// these (service/pool_cache.h) with the engine restored to its built
/// state.
struct WarmEntry {
  std::unique_ptr<UnifiedInstance> inst;
  std::unique_ptr<SpreadDecreaseEngine> engine;
  /// Rows (unified ids, sorted ascending) whose out- or in-edges changed
  /// since the engine's samples were last derived: the union of the
  /// ComputeChangedRows diffs of every graph update the entry was carried
  /// across (QueryService::MigrateEpoch swaps inst->graph forward and
  /// folds the diff in here). While either is non-empty the samples lag
  /// inst->graph; SolveGreedy re-derives them before anything scores
  /// them.
  std::vector<VertexId> pending_out;
  std::vector<VertexId> pending_in;
  /// Byte account at last cache insertion (engine + unified graph,
  /// including its grouped view once the skip sampler has built one, and
  /// the pending rows).
  uint64_t bytes = 0;

  bool lagging() const { return !pending_out.empty() || !pending_in.empty(); }

  /// Folds one update's changed rows (sorted ascending) into the pending
  /// union.
  void AddPendingRows(std::span<const VertexId> changed_out,
                      std::span<const VertexId> changed_in);

  /// Recomputes `bytes` from the current engine/instance state.
  void AccountBytes() {
    bytes = engine ? engine->MemoryUsageBytes() : 0;
    if (inst) {
      bytes += inst->graph.MemoryUsageBytes() +
               inst->graph.GroupedViewMemoryUsageBytes() +
               (inst->to_original.capacity() + inst->to_unified.capacity()) *
                   sizeof(VertexId);
    }
    bytes += (pending_out.capacity() + pending_in.capacity()) *
             sizeof(VertexId);
  }
};

/// The one AG/GR solve path (options.algorithm must be one of the two).
/// Creates only what `entry` lacks: the unified instance of (g, seeds),
/// under a kUnify span, and a built engine for options' sampling knobs,
/// timed into stats.pool_build_seconds. A present engine must be at rest
/// (built, mask all-clear, not timed out) and built for the same knobs.
/// A lagging entry is brought current first: MigrateGraph over its
/// pending rows, under a kMigrate span, deadline-free (its work is
/// bounded by θ, and an entry is never left half-migrated; `deadline`
/// still counts the time), timed into stats.migrate_seconds.
/// Zero budgets, and GR on a sink super-seed, return the empty answer
/// without building. A build that hits `deadline` returns an empty
/// timed_out result and leaves the timed-out engine in the entry. The
/// engine is left traced to `trace`; callers that keep the entry clear it.
/// Blockers and selection_trace come back in original ids.
/// options.time_limit_seconds is not read — `deadline` is the limit.
SolverResult SolveGreedy(const Graph& g, const std::vector<VertexId>& seeds,
                         const SolverOptions& options,
                         const Deadline& deadline, obs::SolveTrace* trace,
                         WarmEntry* entry);

}  // namespace vblock
