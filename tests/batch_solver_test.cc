// Differential and determinism tests for the BatchSolver: every batch
// answer must be bit-exact with the standalone SolveImin call for the same
// query (across algorithms, sample-reuse modes, and worker-thread counts),
// budget sweeps must match independent single-budget solves, and the
// result vector must be invariant under query-order shuffling and
// num_threads changes. Also covers the batch's validation surface and the
// amortization counters.

#include "core/batch_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/solver.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "service/pool_cache.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

// The standalone options the batch must replicate for one query.
SolverOptions ToSolverOptions(const IminQuery& q,
                              const SolverOptions& defaults) {
  SolverOptions opts = defaults;
  opts.algorithm = q.algorithm;
  opts.budget = q.budget;
  if (q.theta) opts.theta = *q.theta;
  if (q.mc_rounds) opts.mc_rounds = *q.mc_rounds;
  if (q.seed) opts.seed = *q.seed;
  if (q.sample_reuse) opts.sample_reuse = *q.sample_reuse;
  if (q.time_limit_seconds) opts.time_limit_seconds = *q.time_limit_seconds;
  return opts;
}

// Asserts every batch entry equals its standalone solve bit-for-bit
// (everything except stats.seconds, which is documented to differ).
void ExpectBitExactWithStandalone(const Graph& g,
                                  const std::vector<IminQuery>& queries,
                                  const BatchOptions& options,
                                  const BatchResult& batch) {
  ASSERT_EQ(batch.queries.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " algo " +
                 AlgorithmName(queries[i].algorithm) + " budget " +
                 std::to_string(queries[i].budget));
    auto reference = SolveImin(g, queries[i].seeds,
                               ToSolverOptions(queries[i], options.defaults));
    const BatchQueryResult& got = batch.queries[i];
    ASSERT_EQ(got.status.ok(), reference.ok()) << got.status.ToString();
    if (!reference.ok()) {
      EXPECT_EQ(got.status.code(), reference.status().code());
      continue;
    }
    EXPECT_EQ(got.result.blockers, reference->blockers);
    EXPECT_EQ(got.result.stats.selection_trace,
              reference->stats.selection_trace);
    EXPECT_EQ(got.result.stats.rounds_completed,
              reference->stats.rounds_completed);
    EXPECT_EQ(got.result.stats.replacements, reference->stats.replacements);
    EXPECT_EQ(got.result.stats.round_best_delta,
              reference->stats.round_best_delta);
    EXPECT_EQ(got.result.stats.timed_out, reference->stats.timed_out);
  }
}

Graph TestGraph() {
  return WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 7));
}

// The satellite matrix: AG/GR × {kPrune, kResample} × num_threads {1,2,8},
// several seed sets and budgets per cell, all bit-exact with standalone
// solves.
TEST(BatchSolverTest, DifferentialMatrixAgGrAcrossReuseAndThreads) {
  Graph g = TestGraph();
  BatchOptions options;
  options.defaults.theta = 400;
  options.defaults.seed = 29;

  std::vector<IminQuery> queries;
  for (SampleReuse reuse : {SampleReuse::kResample, SampleReuse::kPrune}) {
    for (Algorithm algo :
         {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
      for (const std::vector<VertexId>& seeds :
           {std::vector<VertexId>{0, 1}, std::vector<VertexId>{5}}) {
        for (uint32_t budget : {1u, 3u, 5u}) {
          IminQuery q;
          q.seeds = seeds;
          q.budget = budget;
          q.algorithm = algo;
          q.sample_reuse = reuse;
          queries.push_back(std::move(q));
        }
      }
    }
  }

  for (uint32_t num_threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("num_threads " + std::to_string(num_threads));
    options.num_threads = num_threads;
    BatchResult batch = SolveIminBatch(g, queries, options);
    ExpectBitExactWithStandalone(g, queries, options, batch);
  }
}

// A 16-budget AG sweep is served by one full solve + one pool build; every
// prefix equals the independent single-budget solve.
TEST(BatchSolverTest, AdvancedGreedyBudgetSweepMatchesIndependentSolves) {
  Graph g = TestGraph();
  BatchOptions options;
  options.defaults.theta = 600;
  options.defaults.seed = 11;
  options.defaults.sample_reuse = SampleReuse::kPrune;

  std::vector<IminQuery> queries;
  for (uint32_t budget = 1; budget <= 16; ++budget) {
    IminQuery q;
    q.seeds = {0};
    q.budget = budget;
    q.algorithm = Algorithm::kAdvancedGreedy;
    queries.push_back(std::move(q));
  }
  BatchResult batch = SolveIminBatch(g, queries, options);
  ExpectBitExactWithStandalone(g, queries, options, batch);
  EXPECT_EQ(batch.stats.num_groups, 1u);
  EXPECT_EQ(batch.stats.full_solves, 1u);
  EXPECT_EQ(batch.stats.sweep_served, 15u);
  EXPECT_EQ(batch.stats.engine_builds, 1u);
}

// GreedyReplace cannot sweep by trace (phase 2 breaks the prefix
// property): each budget runs, but the θ-sample pool is built exactly once
// for the whole group and restored between members, in both reuse modes.
TEST(BatchSolverTest, GreedyReplaceGroupBuildsOnePoolUnderPrune) {
  Graph g = TestGraph();
  BatchOptions options;
  options.defaults.theta = 500;
  options.defaults.seed = 13;
  options.defaults.sample_reuse = SampleReuse::kPrune;

  std::vector<IminQuery> queries;
  for (uint32_t budget : {1u, 2u, 4u, 6u}) {
    IminQuery q;
    q.seeds = {0, 2};
    q.budget = budget;
    q.algorithm = Algorithm::kGreedyReplace;
    queries.push_back(std::move(q));
  }
  BatchResult batch = SolveIminBatch(g, queries, options);
  ExpectBitExactWithStandalone(g, queries, options, batch);
  EXPECT_EQ(batch.stats.num_groups, 1u);
  EXPECT_EQ(batch.stats.full_solves, 4u);
  EXPECT_EQ(batch.stats.sweep_served, 0u);
  EXPECT_EQ(batch.stats.engine_builds, 1u);

  // kResample restores bit-exactly too (the revision-0 streams replay).
  options.defaults.sample_reuse = SampleReuse::kResample;
  BatchResult resample = SolveIminBatch(g, queries, options);
  ExpectBitExactWithStandalone(g, queries, options, resample);
  EXPECT_EQ(resample.stats.engine_builds, 1u);
}

// A GR group over a sink seed set answers every member with the empty set
// and builds no θ-sample pool.
TEST(BatchSolverTest, GreedyReplaceOnSinkSeedsBuildsNoPool) {
  Graph g = testing::StarGraph(12, 0.5);
  BatchOptions options;
  options.defaults.theta = 200;
  options.defaults.seed = 5;

  std::vector<IminQuery> queries;
  for (uint32_t budget : {0u, 1u, 3u}) {
    IminQuery q;
    q.seeds = {7, 3};
    q.budget = budget;
    q.algorithm = Algorithm::kGreedyReplace;
    queries.push_back(std::move(q));
  }
  BatchResult batch = SolveIminBatch(g, queries, options);
  ExpectBitExactWithStandalone(g, queries, options, batch);
  EXPECT_EQ(batch.stats.num_groups, 1u);
  EXPECT_EQ(batch.stats.engine_builds, 0u);
  for (const BatchQueryResult& q : batch.queries) {
    EXPECT_TRUE(q.result.blockers.empty());
  }
}

// The BG sweep relies on per-round MC seed streams being independent of
// the budget; verified against standalone solves on the paper's toy graph.
TEST(BatchSolverTest, BaselineGreedySweepMatchesIndependentSolves) {
  Graph g = testing::PaperFigure1Graph();
  BatchOptions options;
  options.defaults.mc_rounds = 500;
  options.defaults.seed = 17;

  std::vector<IminQuery> queries;
  for (uint32_t budget : {1u, 2u, 3u}) {
    IminQuery q;
    q.seeds = {testing::kV1};
    q.budget = budget;
    q.algorithm = Algorithm::kBaselineGreedy;
    queries.push_back(std::move(q));
  }
  BatchResult batch = SolveIminBatch(g, queries, options);
  ExpectBitExactWithStandalone(g, queries, options, batch);
  EXPECT_EQ(batch.stats.full_solves, 1u);
  EXPECT_EQ(batch.stats.sweep_served, 2u);
}

// The concurrency-determinism satellite: submitting the same queries in a
// shuffled order, at any num_threads, yields identical per-query results.
TEST(BatchSolverTest, ShuffledOrderAndThreadCountsYieldIdenticalResults) {
  Graph g = TestGraph();
  BatchOptions options;
  options.defaults.theta = 300;
  options.defaults.seed = 23;

  std::vector<IminQuery> queries;
  for (Algorithm algo : {Algorithm::kAdvancedGreedy,
                         Algorithm::kGreedyReplace, Algorithm::kOutDegree}) {
    for (uint32_t budget : {2u, 4u, 7u}) {
      for (VertexId seed_vertex : {0u, 3u}) {
        IminQuery q;
        q.seeds = {seed_vertex, seed_vertex + 10};
        q.budget = budget;
        q.algorithm = algo;
        queries.push_back(std::move(q));
      }
    }
  }

  options.num_threads = 1;
  const BatchResult reference = SolveIminBatch(g, queries, options);
  ASSERT_EQ(reference.queries.size(), queries.size());

  // A deterministic shuffle: reverse, then interleave odd/even positions.
  std::vector<size_t> perm;
  for (size_t i = queries.size(); i-- > 0;) {
    if (i % 2 == 0) perm.push_back(i);
  }
  for (size_t i = queries.size(); i-- > 0;) {
    if (i % 2 == 1) perm.push_back(i);
  }
  std::vector<IminQuery> shuffled;
  for (size_t i : perm) shuffled.push_back(queries[i]);

  for (uint32_t num_threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("num_threads " + std::to_string(num_threads));
    options.num_threads = num_threads;
    BatchResult got = SolveIminBatch(g, shuffled, options);
    ASSERT_EQ(got.queries.size(), shuffled.size());
    EXPECT_EQ(got.stats.num_groups, reference.stats.num_groups);
    for (size_t pos = 0; pos < perm.size(); ++pos) {
      const SolverResult& want = reference.queries[perm[pos]].result;
      const SolverResult& have = got.queries[pos].result;
      EXPECT_EQ(have.blockers, want.blockers) << "position " << pos;
      EXPECT_EQ(have.stats.selection_trace, want.stats.selection_trace);
      EXPECT_EQ(have.stats.round_best_delta, want.stats.round_best_delta);
    }
  }
}

// Invalid queries get the same typed Status codes SolveImin returns, and
// they never disturb the valid queries sharing the batch.
TEST(BatchSolverTest, InvalidQueriesAreRejectedWithoutDisturbingOthers) {
  Graph g = TestGraph();
  BatchOptions options;
  options.defaults.theta = 300;
  options.num_threads = 2;

  std::vector<IminQuery> queries(5);
  queries[0].seeds = {0};
  queries[0].budget = 3;
  queries[0].algorithm = Algorithm::kAdvancedGreedy;
  queries[1].seeds = {};  // empty seed set
  queries[2].seeds = {4, 4};  // duplicate seed
  queries[3].seeds = {g.NumVertices() + 5};  // out of range
  queries[4].seeds = {1};
  queries[4].budget = g.NumVertices();  // > non-seed count
  queries[4].algorithm = Algorithm::kOutDegree;

  BatchResult batch = SolveIminBatch(g, queries, options);
  ASSERT_EQ(batch.queries.size(), 5u);
  EXPECT_TRUE(batch.queries[0].status.ok());
  EXPECT_EQ(batch.queries[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.queries[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.queries[3].status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(batch.queries[4].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.stats.num_groups, 1u);
  ExpectBitExactWithStandalone(g, queries, options, batch);
}

// Every facade algorithm (including the heuristic top-k family) sweeps
// bit-exactly; seed-set order inside a query does not split groups.
TEST(BatchSolverTest, AllAlgorithmsSweepAndSeedOrderIsCanonicalized) {
  Graph g = TestGraph();
  BatchOptions options;
  options.defaults.theta = 300;
  options.defaults.mc_rounds = 200;
  options.defaults.seed = 31;
  options.num_threads = 4;

  std::vector<IminQuery> queries;
  for (Algorithm algo :
       {Algorithm::kRandom, Algorithm::kOutDegree, Algorithm::kPageRank,
        Algorithm::kBetweenness, Algorithm::kBaselineGreedy,
        Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
    for (uint32_t budget : {2u, 5u}) {
      IminQuery q;
      // Alternate the listing order of the same seed set; the group key
      // canonicalizes it.
      q.seeds = (budget % 2 == 0) ? std::vector<VertexId>{9, 4}
                                  : std::vector<VertexId>{4, 9};
      q.budget = budget;
      q.algorithm = algo;
      queries.push_back(std::move(q));
    }
  }
  BatchResult batch = SolveIminBatch(g, queries, options);
  ExpectBitExactWithStandalone(g, queries, options, batch);
  EXPECT_EQ(batch.stats.num_groups, 7u);  // one per algorithm
  EXPECT_EQ(batch.stats.sweep_served, 6u);  // every non-GR group serves one
}

// Per-query overrides split groups (different θ must not share a pool) and
// still solve bit-exactly.
TEST(BatchSolverTest, PerQueryOverridesSplitGroups) {
  Graph g = TestGraph();
  BatchOptions options;
  options.defaults.theta = 300;
  options.defaults.seed = 37;

  std::vector<IminQuery> queries;
  for (uint32_t theta : {200u, 400u}) {
    for (uint32_t budget : {2u, 4u}) {
      IminQuery q;
      q.seeds = {0};
      q.budget = budget;
      q.algorithm = Algorithm::kAdvancedGreedy;
      q.theta = theta;
      queries.push_back(std::move(q));
    }
  }
  IminQuery other_seed = queries[0];
  other_seed.seed = 99;
  queries.push_back(std::move(other_seed));
  // An override AG never reads must NOT split a group: this query joins
  // the theta=200 group and is served from its trace.
  IminQuery irrelevant_override = queries[0];
  irrelevant_override.mc_rounds = 777;
  queries.push_back(std::move(irrelevant_override));

  BatchResult batch = SolveIminBatch(g, queries, options);
  ExpectBitExactWithStandalone(g, queries, options, batch);
  EXPECT_EQ(batch.stats.num_groups, 3u);
  EXPECT_EQ(batch.queries.back().result.blockers,
            batch.queries.front().result.blockers);
}

// Deadline smoke: results under a time limit are inherently wall-clock
// dependent, so no bit-exactness is asserted — but every query must come
// back well-formed, and a member the shared run's deadline could not
// cover falls back to its own solve instead of inheriting a truncated
// trace (the sweep path's analogue of the GR rebuild-on-poison rule).
TEST(BatchSolverTest, TimeLimitedSweepKeepsEveryQueryWellFormed) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(20000, 4, 3));
  BatchOptions options;
  options.defaults.theta = 200000;  // a θ-loop far beyond the deadline
  options.defaults.time_limit_seconds = 0.05;
  options.defaults.sample_reuse = SampleReuse::kPrune;

  std::vector<IminQuery> queries;
  for (uint32_t budget : {2u, 2000u}) {
    for (Algorithm algo :
         {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
      IminQuery q;
      q.seeds = {0};
      q.budget = budget;
      q.algorithm = algo;
      queries.push_back(std::move(q));
    }
  }
  BatchResult batch = SolveIminBatch(g, queries, options);
  ASSERT_EQ(batch.queries.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const BatchQueryResult& q = batch.queries[i];
    ASSERT_TRUE(q.status.ok()) << i;
    EXPECT_LE(q.result.blockers.size(), queries[i].budget) << i;
    EXPECT_LE(q.result.stats.rounds_completed, queries[i].budget) << i;
  }
}

// Regression: BatchSolver grouping and the service's PoolCache both key on
// the ONE shared helper (ResolveQueryKey / core/query_key.h); two queries
// land in one batch group exactly when their canonical keys agree, and the
// cache's projection collapses precisely the documented fields.
TEST(BatchSolverTest, CanonicalQueryKeyAgreesAcrossBatchAndPoolCache) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(120, 3, 5));
  SolverOptions defaults;
  defaults.theta = 100;
  defaults.mc_rounds = 50;
  defaults.seed = 9;

  IminQuery base;
  base.seeds = {3, 1, 7};
  base.budget = 4;
  base.algorithm = Algorithm::kGreedyReplace;

  // Irrelevant knob (GR never reads mc_rounds) and seed order must not
  // split keys; a relevant knob (theta) must.
  IminQuery mc_override = base;
  mc_override.mc_rounds = 777;
  IminQuery reordered = base;
  reordered.seeds = {7, 3, 1};
  IminQuery different_theta = base;
  different_theta.theta = 200;

  const QueryKey key_base = ResolveQueryKey(base, defaults);
  EXPECT_EQ(key_base, ResolveQueryKey(mc_override, defaults));
  EXPECT_EQ(key_base, ResolveQueryKey(reordered, defaults));
  EXPECT_FALSE(key_base == ResolveQueryKey(different_theta, defaults));
  EXPECT_EQ(key_base.seeds, (std::vector<VertexId>{1, 3, 7}));

  // The BatchSolver observes the same sharing: 3 coinciding queries + 1
  // odd one out form exactly 2 groups.
  BatchOptions options;
  options.defaults = defaults;
  BatchResult batch = SolveIminBatch(
      g, {base, mc_override, reordered, different_theta}, options);
  EXPECT_EQ(batch.stats.num_groups, 2u);
  for (const BatchQueryResult& q : batch.queries) {
    ASSERT_TRUE(q.status.ok());
  }
  EXPECT_EQ(batch.queries[0].result.blockers,
            batch.queries[1].result.blockers);
  EXPECT_EQ(batch.queries[0].result.blockers,
            batch.queries[2].result.blockers);

  // PoolCache keys through the same canonical key: the AG and GR variants
  // of one query share a warm pool (family collapse), the time limit is
  // projected away, and non-engine algorithms have no pool key at all.
  IminQuery ag = base;
  ag.algorithm = Algorithm::kAdvancedGreedy;
  IminQuery timed = base;
  timed.time_limit_seconds = 30.0;
  auto pool_base = PoolCache::KeyFor(1, key_base);
  auto pool_ag = PoolCache::KeyFor(1, ResolveQueryKey(ag, defaults));
  auto pool_timed = PoolCache::KeyFor(1, ResolveQueryKey(timed, defaults));
  ASSERT_TRUE(pool_base && pool_ag && pool_timed);
  EXPECT_EQ(pool_base->query, pool_ag->query);
  EXPECT_EQ(pool_base->query, pool_timed->query);
  EXPECT_FALSE(pool_base->query ==
               PoolCache::KeyFor(1, ResolveQueryKey(different_theta, defaults))
                   ->query);
  // Different graph epoch → different cache address.
  EXPECT_TRUE(pool_base->operator<(*PoolCache::KeyFor(2, key_base)) ||
              PoolCache::KeyFor(2, key_base)->operator<(*pool_base));

  IminQuery bg = base;
  bg.algorithm = Algorithm::kBaselineGreedy;
  EXPECT_FALSE(PoolCache::KeyFor(1, ResolveQueryKey(bg, defaults)));
}

}  // namespace
}  // namespace vblock
