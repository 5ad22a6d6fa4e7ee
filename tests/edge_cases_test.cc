// Degenerate-input and boundary tests across the public API: empty
// candidate pools, zero budgets, isolated seeds, single-vertex instances.

#include <gtest/gtest.h>

#include "cascade/exact_spread.h"
#include "cascade/monte_carlo.h"
#include "core/baseline_greedy.h"
#include "core/evaluator.h"
#include "core/exact_blocker.h"
#include "core/greedy.h"
#include "core/solver.h"
#include "core/spread_decrease.h"
#include "core/unified_instance.h"
#include "graph/graph_builder.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

Graph SingleVertexGraph() {
  GraphBuilder b;
  b.ReserveVertices(1);
  auto g = b.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(g.value());
}

TEST(EdgeCaseTest, SingleVertexInstanceAllAlgorithms) {
  // With the lone vertex seeded there is nothing blockable: a positive
  // budget cannot be satisfied and is rejected as a typed error (it used to
  // be clamped to an empty result); budget 0 stays trivially solvable.
  Graph g = SingleVertexGraph();
  for (Algorithm algo :
       {Algorithm::kRandom, Algorithm::kOutDegree, Algorithm::kPageRank,
        Algorithm::kBetweenness, Algorithm::kBaselineGreedy,
        Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
    SolverOptions opts;
    opts.algorithm = algo;
    opts.budget = 3;
    opts.theta = 50;
    opts.mc_rounds = 50;
    auto rejected = SolveImin(g, {0}, opts);
    ASSERT_FALSE(rejected.ok()) << AlgorithmName(algo);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

    opts.budget = 0;
    auto result = SolveImin(g, {0}, opts);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
    EXPECT_TRUE(result->blockers.empty()) << AlgorithmName(algo);
  }
}

TEST(EdgeCaseTest, SolveIminRejectsEmptySeedSet) {
  Graph g = testing::PaperFigure1Graph();
  auto result = SolveImin(g, {}, SolverOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(result.status().message().empty());
}

TEST(EdgeCaseTest, SolveIminRejectsDuplicateSeedIds) {
  // Duplicates used to be silently deduplicated by the unification; the
  // facade now reports them — a repeated id is almost always a caller bug.
  Graph g = testing::PaperFigure1Graph();
  SolverOptions opts;
  opts.budget = 1;
  opts.theta = 50;
  auto result = SolveImin(g, {0, 2, 0}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("duplicate"), std::string::npos);
}

TEST(EdgeCaseTest, SolveIminRejectsOutOfRangeSeed) {
  Graph g = testing::PathGraph(4, 1.0);
  SolverOptions opts;
  opts.budget = 1;
  opts.theta = 50;
  auto result = SolveImin(g, {7}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EdgeCaseTest, SolveIminRejectsBudgetBeyondNonSeedCount) {
  // 4 vertices, 1 seed -> 3 blockable vertices. budget == 3 (block every
  // candidate) is a legitimate degenerate query; budget 4 can never be
  // satisfied and is the silent-clamping case the validation now rejects.
  Graph g = testing::PathGraph(4, 1.0);
  SolverOptions opts;
  opts.algorithm = Algorithm::kOutDegree;
  opts.budget = 3;
  auto at_limit = SolveImin(g, {0}, opts);
  ASSERT_TRUE(at_limit.ok());
  EXPECT_EQ(at_limit->blockers.size(), 3u);

  opts.budget = 4;
  auto beyond = SolveImin(g, {0}, opts);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(beyond.status().message().find("budget"), std::string::npos);
}

TEST(EdgeCaseTest, ZeroBudgetReturnsEmpty) {
  Graph g = testing::PaperFigure1Graph();
  for (Algorithm algo : {Algorithm::kBaselineGreedy,
                         Algorithm::kAdvancedGreedy,
                         Algorithm::kGreedyReplace, Algorithm::kRandom}) {
    SolverOptions opts;
    opts.algorithm = algo;
    opts.budget = 0;
    opts.theta = 50;
    opts.mc_rounds = 50;
    auto result = SolveImin(g, {0}, opts);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
    EXPECT_TRUE(result->blockers.empty()) << AlgorithmName(algo);
  }
}

TEST(EdgeCaseTest, IsolatedSeedSpreadIsOne) {
  // Seed with no out-edges: nothing propagates, nothing to block.
  GraphBuilder b;
  b.AddEdge(1, 2, 1.0);
  b.ReserveVertices(4);
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  Graph g = std::move(built.value());

  auto exact = ComputeExactSpread(g, {0});
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(*exact, 1.0);

  SolverOptions opts;
  opts.algorithm = Algorithm::kGreedyReplace;
  opts.budget = 2;
  opts.theta = 50;
  auto result = SolveImin(g, {0}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->blockers.empty());  // root has no out-neighbors
}

TEST(EdgeCaseTest, AdvancedGreedyOnIsolatedSeedPicksZeroDeltas) {
  GraphBuilder b;
  b.AddEdge(1, 2, 1.0);
  b.ReserveVertices(4);
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  UnifiedInstance inst = UnifySeeds(*built, {0});
  GreedyOptions opts;
  opts.budget = 2;
  opts.theta = 50;
  auto sel = AdvancedGreedy(inst.graph, inst.root, opts);
  // Candidates exist (Δ = 0 everywhere); the algorithm still fills the
  // budget deterministically.
  EXPECT_EQ(sel.blockers.size(), 2u);
  for (double d : sel.stats.round_best_delta) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(EdgeCaseTest, AllVerticesAreSeeds) {
  Graph g = testing::PathGraph(4, 1.0);
  UnifiedInstance inst = UnifySeeds(g, {0, 1, 2, 3});
  EXPECT_EQ(inst.graph.NumVertices(), 1u);  // just the super-seed
  EXPECT_EQ(inst.num_seeds, 4u);
  auto exact = ComputeExactSpread(inst.graph, {inst.root});
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(inst.ToOriginalSpread(*exact), 4.0);
}

TEST(EdgeCaseTest, ExactSearchWithAllReachableSeeded) {
  // Star where every leaf is a seed: candidate pool is empty.
  Graph g = testing::StarGraph(4, 1.0);
  ExactSearchOptions opts;
  opts.budget = 2;
  opts.evaluation.prefer_exact = true;
  auto result = ExactBlockerSearch(g, {0, 1, 2, 3}, opts);
  EXPECT_TRUE(result.blockers.empty());
  EXPECT_DOUBLE_EQ(result.spread, 4.0);
}

TEST(EdgeCaseTest, SpreadDecreaseThetaOne) {
  // θ=1 is legal: one sample, exact for a deterministic graph.
  Graph g = testing::PathGraph(5, 1.0);
  SpreadDecreaseOptions opts;
  opts.theta = 1;
  auto result = ComputeSpreadDecrease(g, 0, opts);
  EXPECT_DOUBLE_EQ(result.expected_spread, 5.0);
  EXPECT_DOUBLE_EQ(result.delta[1], 4.0);
}

TEST(EdgeCaseTest, MonteCarloAllSeedsBlockedGivesZero) {
  Graph g = testing::PathGraph(4, 1.0);
  VertexMask blocked(4);
  blocked.Set(0);
  blocked.Set(2);
  MonteCarloOptions mc;
  mc.rounds = 100;
  EXPECT_DOUBLE_EQ(EstimateSpread(g, {0, 2}, mc, &blocked), 0.0);
}

TEST(EdgeCaseTest, EvaluateSpreadEmptyBlockerList) {
  Graph g = testing::PaperFigure1Graph();
  EvaluationOptions opts;
  opts.prefer_exact = true;
  EXPECT_NEAR(EvaluateSpread(g, {0}, {}, opts), 7.66, 1e-12);
}

TEST(EdgeCaseTest, ProbabilityZeroAndOneEdgesMixed) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.0);
  b.AddEdge(0, 2, 1.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto exact = ComputeExactSpread(*g, {0});
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(*exact, 2.0);  // 0 and 2 only
}

TEST(EdgeCaseTest, BuilderKeepLastParallelEdgeMode) {
  GraphBuilder::Options bopts;
  bopts.merge_parallel_edges = false;
  GraphBuilder b(bopts);
  b.AddEdge(0, 1, 0.2);
  b.AddEdge(0, 1, 0.9);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g->OutProbabilities(0)[0], 0.9);
}

TEST(EdgeCaseTest, GreedyReplaceBudgetOneOutNeighborOne) {
  // Root with exactly one out-neighbor and nothing else: GR must block it.
  Graph g = testing::PathGraph(3, 1.0);
  UnifiedInstance inst = UnifySeeds(g, {0});
  GreedyOptions opts;
  opts.budget = 1;
  opts.theta = 50;
  auto sel = GreedyReplace(inst.graph, inst.root, opts);
  ASSERT_EQ(sel.blockers.size(), 1u);
  EXPECT_EQ(inst.to_original[sel.blockers[0]], 1u);
}

TEST(EdgeCaseTest, BaselineGreedyZeroDeltaStillFillsBudget) {
  // No propagation possible: BG keeps selecting (Δ = 0 candidates) until
  // budget — matching Algorithm 1, which always inserts the argmax.
  Graph g = testing::PathGraph(4, 0.0);
  UnifiedInstance inst = UnifySeeds(g, {0});
  BaselineGreedyOptions opts;
  opts.budget = 2;
  opts.mc_rounds = 50;
  auto sel = BaselineGreedy(inst.graph, inst.root, opts);
  EXPECT_EQ(sel.blockers.size(), 2u);
}

TEST(EdgeCaseTest, SelfLoopOnSeedIsHarmless) {
  GraphBuilder::Options bopts;
  bopts.drop_self_loops = false;
  GraphBuilder b(bopts);
  b.AddEdge(0, 0, 1.0);
  b.AddEdge(0, 1, 1.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto exact = ComputeExactSpread(*g, {0});
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(*exact, 2.0);
}

}  // namespace
}  // namespace vblock
