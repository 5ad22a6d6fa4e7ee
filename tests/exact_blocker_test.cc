// Tests for the exhaustive optimal-blocker search (the paper's "Exact"
// competitor) and the evaluator.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/batch_solver.h"
#include "core/evaluator.h"
#include "core/exact_blocker.h"
#include "core/solver.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

using testing::PaperFigure1Graph;

TEST(EvaluatorTest, ExactPathMatchesKnownSpread) {
  Graph g = PaperFigure1Graph();
  EvaluationOptions opts;
  opts.prefer_exact = true;
  EXPECT_NEAR(EvaluateSpread(g, {testing::kV1}, {}, opts), 7.66, 1e-12);
  EXPECT_NEAR(EvaluateSpread(g, {testing::kV1}, {testing::kV5}, opts), 3.0,
              1e-12);
}

TEST(EvaluatorTest, MonteCarloFallbackWhenTooManyUncertainEdges) {
  Graph g = WithConstantProbability(GenerateErdosRenyi(60, 600, 1), 0.3);
  EvaluationOptions opts;
  opts.prefer_exact = true;
  opts.max_uncertain_edges = 4;  // force the fallback
  opts.mc_rounds = 20000;
  double spread = EvaluateSpread(g, {0}, {}, opts);
  EXPECT_GE(spread, 1.0);
  EXPECT_LE(spread, 60.0);
}

// Out-of-range seeds and blockers are programming errors: they abort with a
// message on both paths instead of reading or writing past the graph.
TEST(EvaluatorDeathTest, OutOfRangeSeedOrBlockerAborts) {
  const Graph g = testing::PathGraph(3, 0.5);
  for (bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "prefer_exact" : "monte-carlo");
    EvaluationOptions opts;
    opts.prefer_exact = exact;
    opts.mc_rounds = 100;
    EXPECT_DEATH(EvaluateSpread(g, {3}, {}, opts), "seed is not a vertex");
    EXPECT_DEATH(EvaluateSpread(g, {0}, {3}, opts),
                 "blocker is not a vertex");
  }
}

TEST(ExactSearchTest, Budget1FindsV5) {
  // Example 1: the optimal single blocker is v5.
  Graph g = PaperFigure1Graph();
  ExactSearchOptions opts;
  opts.budget = 1;
  opts.evaluation.prefer_exact = true;
  auto result = ExactBlockerSearch(g, {testing::kV1}, opts);
  ASSERT_EQ(result.blockers.size(), 1u);
  EXPECT_EQ(result.blockers[0], testing::kV5);
  EXPECT_NEAR(result.spread, 3.0, 1e-12);
  EXPECT_EQ(result.combinations_evaluated, 8u);  // 8 reachable non-seeds
  EXPECT_FALSE(result.timed_out);
}

TEST(ExactSearchTest, Budget2FindsOutNeighborPair) {
  // The optimal pair is {v2, v4} with spread 1 (Table III).
  Graph g = PaperFigure1Graph();
  ExactSearchOptions opts;
  opts.budget = 2;
  opts.evaluation.prefer_exact = true;
  auto result = ExactBlockerSearch(g, {testing::kV1}, opts);
  auto sorted = result.blockers;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<VertexId>{testing::kV2, testing::kV4}));
  EXPECT_NEAR(result.spread, 1.0, 1e-12);
  EXPECT_EQ(result.combinations_evaluated, 28u);  // C(8,2)
}

TEST(ExactSearchTest, EmptyBudgetEvaluatesBaseline) {
  Graph g = PaperFigure1Graph();
  ExactSearchOptions opts;
  opts.budget = 0;
  opts.evaluation.prefer_exact = true;
  auto result = ExactBlockerSearch(g, {testing::kV1}, opts);
  EXPECT_TRUE(result.blockers.empty());
  EXPECT_NEAR(result.spread, 7.66, 1e-12);
}

TEST(ExactSearchTest, DeadlineReturnsBestSoFar) {
  Graph g = WithConstantProbability(GenerateErdosRenyi(40, 160, 3), 0.4);
  ExactSearchOptions opts;
  opts.budget = 3;
  opts.evaluation.prefer_exact = false;
  opts.evaluation.mc_rounds = 2000;
  opts.time_limit_seconds = 0.2;
  auto result = ExactBlockerSearch(g, {0}, opts);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.blockers.empty());
}

// ER graph where only every 5th edge is probabilistic (p=0.5) — keeps the
// uncertain-edge count low enough for fully exact evaluation.
Graph MostlyCertainGraph(uint64_t seed) {
  Graph base = GenerateErdosRenyi(16, 40, seed);
  GraphBuilder b;
  b.ReserveVertices(base.NumVertices());
  size_t i = 0;
  for (const Edge& e : base.CollectEdges()) {
    b.AddEdge(e.source, e.target, (i++ % 5 == 0) ? 0.5 : 1.0);
  }
  auto g = b.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(g.value());
}

TEST(ExactSearchTest, GreedyReplaceIsNearOptimal) {
  // The Tables V/VI claim: GR's spread ratio vs Exact ≈ 100%. Verified on
  // small random instances where Exact is cheap.
  for (uint64_t graph_seed : {11ull, 12ull, 13ull}) {
    Graph g = MostlyCertainGraph(graph_seed);
    ExactSearchOptions ex_opts;
    ex_opts.budget = 2;
    ex_opts.evaluation.prefer_exact = true;
    ex_opts.evaluation.max_uncertain_edges = 25;
    auto exact = ExactBlockerSearch(g, {0}, ex_opts);

    SolverOptions gr_opts;
    gr_opts.algorithm = Algorithm::kGreedyReplace;
    gr_opts.budget = 2;
    gr_opts.theta = 20000;
    gr_opts.seed = graph_seed;
    auto gr = SolveImin(g, {0}, gr_opts);

    EvaluationOptions eval;
    eval.prefer_exact = true;
    eval.max_uncertain_edges = 25;
    double gr_spread = EvaluateSpread(g, {0}, gr->blockers, eval);
    // GR within 10% of the optimum on these tiny instances (the paper
    // reports ≥ 99.9%; small graphs leave more room for ties).
    EXPECT_LE(gr_spread, exact.spread * 1.10 + 1e-9)
        << "graph seed " << graph_seed;
    EXPECT_GE(gr_spread, exact.spread - 1e-9) << "exact must lower-bound GR";
  }
}

// Tiny (≤ 9 vertices) exhaustively enumerable ER instance with a sparse
// sprinkling of probabilistic edges, analogous to MostlyCertainGraph.
Graph TinyMostlyCertainGraph(uint64_t seed) {
  Graph base = GenerateErdosRenyi(9, 20, seed);
  GraphBuilder b;
  b.ReserveVertices(base.NumVertices());
  size_t i = 0;
  for (const Edge& e : base.CollectEdges()) {
    b.AddEdge(e.source, e.target, (i++ % 3 == 0) ? 0.5 : 1.0);
  }
  auto g = b.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(g.value());
}

// Oracle cross-check for the batch entry point: on exhaustively enumerated
// instances (the 9-vertex Figure-1 graph and tiny mostly-certain ERs),
// batch-solved AG/GR blocked spreads respect the same exact-search bounds
// the single-query path asserts above — the exact optimum lower-bounds
// both, GR stays within 10% of it, and no blocked spread exceeds the
// unblocked baseline.
TEST(ExactSearchTest, BatchSolvedGreedySpreadsWithinExactBounds) {
  struct Case {
    Graph graph;
    std::vector<VertexId> seeds;
  };
  std::vector<Case> cases;
  cases.push_back({PaperFigure1Graph(), {testing::kV1}});
  cases.push_back({TinyMostlyCertainGraph(21), {0}});
  cases.push_back({TinyMostlyCertainGraph(22), {0}});

  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Graph& g = cases[c].graph;
    ASSERT_LE(g.NumVertices(), 9u);
    const std::vector<VertexId>& seeds = cases[c].seeds;

    EvaluationOptions eval;
    eval.prefer_exact = true;
    eval.max_uncertain_edges = 25;
    const double baseline = EvaluateSpread(g, seeds, {}, eval);

    BatchOptions options;
    options.defaults.theta = 20000;
    options.defaults.seed = 5;
    options.num_threads = 2;
    std::vector<IminQuery> queries;
    for (Algorithm algo :
         {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
      for (uint32_t budget : {1u, 2u}) {
        for (SampleReuse reuse :
             {SampleReuse::kResample, SampleReuse::kPrune}) {
          IminQuery q;
          q.seeds = seeds;
          q.budget = budget;
          q.algorithm = algo;
          q.sample_reuse = reuse;
          queries.push_back(std::move(q));
        }
      }
    }
    BatchResult batch = SolveIminBatch(g, queries, options);

    for (uint32_t budget : {1u, 2u}) {
      ExactSearchOptions ex_opts;
      ex_opts.budget = budget;
      ex_opts.evaluation = eval;
      auto exact = ExactBlockerSearch(g, seeds, ex_opts);

      for (size_t i = 0; i < queries.size(); ++i) {
        if (queries[i].budget != budget) continue;
        ASSERT_TRUE(batch.queries[i].status.ok());
        const double spread =
            EvaluateSpread(g, seeds, batch.queries[i].result.blockers, eval);
        SCOPED_TRACE(std::string(AlgorithmName(queries[i].algorithm)) +
                     " budget " + std::to_string(budget));
        EXPECT_GE(spread, exact.spread - 1e-9)
            << "exact optimum must lower-bound the greedy";
        EXPECT_LE(spread, baseline + 1e-9);
        if (queries[i].algorithm == Algorithm::kGreedyReplace) {
          EXPECT_LE(spread, exact.spread * 1.10 + 1e-9);
        }
      }
    }
  }
}

}  // namespace
}  // namespace vblock
