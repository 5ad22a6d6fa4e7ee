// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Amortized multi-query IMIN solving against one shared graph.
//
// The greedy algorithms answer a (seeds, budget) query by building a
// θ-sample pool and walking it round by round — and a greedy pick depends
// only on the picks before it, never on the remaining budget. One solve at
// the largest requested budget therefore implicitly answers every smaller
// budget over the same seed set. SolveImin still pays the full unification
// + sampling + scoring cost per call; the BatchSolver instead
//
//  1. groups queries that can share work — same canonical seed set,
//     algorithm, and resolved sampling parameters — into one group per
//     unified instance,
//  2. answers each group with the cheapest exact schedule: a single
//     max-budget run whose selection trace is sliced into bit-exact
//     prefixes (budget sweep; RA/OD/PR/BC/BG/AG), or, for GreedyReplace
//     (whose phase-2 replacement breaks the prefix property), one
//     SolveGreedy per budget on a single WarmEntry (core/greedy.h), whose
//     θ-sample pool is built once and restored between budgets (in both
//     reuse modes), and
//  3. schedules independent groups on the process executor
//     (common/thread_pool.h), each group
//     writing only its own queries' result slots — output order and content
//     are independent of num_threads and of the submission order.
//
// Every result is bit-exact with the standalone SolveImin call for the same
// query (tests/batch_solver_test.cc runs the differential matrix), except
// stats.seconds, which reports the shared group solve time.
//
//   std::vector<IminQuery> queries;
//   for (uint32_t b = 1; b <= 16; ++b)
//     queries.push_back({.seeds = {0, 1}, .budget = b,
//                        .algorithm = Algorithm::kAdvancedGreedy});
//   BatchResult batch = SolveIminBatch(g, queries);
//   for (const BatchQueryResult& q : batch.queries)
//     if (q.status.ok()) Use(q.result.blockers);

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/query_key.h"
#include "core/solver.h"
#include "graph/graph.h"
#include "sampling/sample_reuse.h"

namespace vblock {

/// One IMIN query against the batch's shared graph. The optional fields
/// override the corresponding BatchOptions::defaults knob for this query
/// only; queries resolving to identical parameters over the same seed set
/// land in the same work group.
struct IminQuery {
  std::vector<VertexId> seeds;
  uint32_t budget = 10;
  Algorithm algorithm = Algorithm::kGreedyReplace;
  std::optional<uint32_t> theta;
  std::optional<uint32_t> mc_rounds;
  std::optional<uint64_t> seed;
  std::optional<SampleReuse> sample_reuse;
  std::optional<SamplerKind> sampler_kind;
  std::optional<double> time_limit_seconds;
  /// Request a per-stage SolveTrace on this query's result. NOT part of
  /// the work-sharing key (ResolveSolverOptions ignores it — tracing never
  /// changes result bits, so traced and untraced queries share groups);
  /// members of a shared run receive the run's shared trace.
  bool trace = false;
};

/// Batch-wide configuration.
struct BatchOptions {
  /// Default solver knobs for fields a query does not override. The
  /// `algorithm` and `budget` members are ignored — those are per-query —
  /// while `threads` caps the engine sampling slots of every group
  /// (engine results are thread-count invariant, so this never changes
  /// answers).
  SolverOptions defaults;
  /// Most executor slots the batch schedules query *groups* across
  /// (independent of defaults.threads, which parallelizes inside one
  /// solve; both share the process executor). Results are identical for
  /// any value.
  uint32_t num_threads = 1;
};

/// Outcome of one query, in the submission position of its query.
struct BatchQueryResult {
  /// Non-OK when ValidateIminQuery rejected the query (the same typed
  /// errors SolveImin returns); such queries do not join any group.
  Status status;
  /// Valid iff status.ok(). Bit-exact with standalone SolveImin except
  /// stats.seconds (the shared group solve time).
  SolverResult result;
};

/// Amortization diagnostics for one Solve() call.
struct BatchStats {
  /// Work groups formed from the valid queries.
  uint32_t num_groups = 0;
  /// Full algorithm executions actually run (one per sweep group; one per
  /// GreedyReplace query).
  uint32_t full_solves = 0;
  /// Queries answered by slicing another run's selection trace.
  uint32_t sweep_served = 0;
  /// θ-sample pools built (AG sweeps and GR groups build one per group,
  /// plus one per GR member that follows a timed-out run; non-sampling
  /// algorithms build none).
  uint32_t engine_builds = 0;
  /// Wall-clock seconds for the whole batch.
  double seconds = 0;
};

/// All per-query outcomes plus batch diagnostics. queries[i] always
/// corresponds to the i-th submitted query.
struct BatchResult {
  std::vector<BatchQueryResult> queries;
  BatchStats stats;
};

/// Reusable batch solver bound to one graph. Solve() is stateless between
/// calls (grouping is recomputed per batch); the value of the class is the
/// documented lifetime: the graph must outlive the solver.
class BatchSolver {
 public:
  explicit BatchSolver(const Graph& g, const BatchOptions& options = {});

  /// Answers every query. Deterministic: the result vector depends only on
  /// the queries themselves (not on submission order of *other* queries,
  /// num_threads, or scheduling).
  BatchResult Solve(const std::vector<IminQuery>& queries) const;

 private:
  const Graph& graph_;
  BatchOptions options_;
};

/// Applies a query's algorithm, budget and per-field overrides to
/// `defaults`: the options its solve runs with, and what ValidateIminQuery
/// checks. CanonicalQueryKey (core/query_key.h) over these options is the
/// exact key BatchSolver groups on; the service's PoolCache and request
/// deduplication key through the same two calls, so all three agree by
/// construction (tests/batch_solver_test.cc pins it).
SolverOptions ResolveSolverOptions(const IminQuery& q,
                                   const SolverOptions& defaults);

/// Facade convenience wrapper: BatchSolver(g, options).Solve(queries).
BatchResult SolveIminBatch(const Graph& g,
                           const std::vector<IminQuery>& queries,
                           const BatchOptions& options = {});

}  // namespace vblock
