// Unit tests for the exact expected-spread computation (live-edge world
// enumeration), including all Example-1 and Theorem-2 golden values and
// the typed errors for seeds out of range and 2^64 or more worlds.

#include <gtest/gtest.h>

#include "cascade/exact_spread.h"
#include "cascade/monte_carlo.h"
#include "core/evaluator.h"
#include "core/spread_decrease.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

using testing::PaperFigure1Graph;
using testing::PathGraph;
using testing::StarGraph;

TEST(ExactSpreadTest, PaperExample1Total) {
  Graph g = PaperFigure1Graph();
  auto spread = ComputeExactSpread(g, {testing::kV1});
  ASSERT_TRUE(spread.ok());
  EXPECT_NEAR(*spread, 7.66, 1e-12);
}

TEST(ExactSpreadTest, PaperExample1AllBlockings) {
  // Example 1: blocking v5 → 3; blocking v2 or v4 → 6.66.
  Graph g = PaperFigure1Graph();
  auto blocked_spread = [&](VertexId v) {
    VertexMask mask(g.NumVertices());
    mask.Set(v);
    auto r = ComputeExactSpread(g, {testing::kV1}, &mask);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  EXPECT_NEAR(blocked_spread(testing::kV5), 3.0, 1e-12);
  EXPECT_NEAR(blocked_spread(testing::kV2), 6.66, 1e-12);
  EXPECT_NEAR(blocked_spread(testing::kV4), 6.66, 1e-12);
  // Derived from the Example-2 Δ values: E - Δ(u).
  EXPECT_NEAR(blocked_spread(testing::kV3), 6.66, 1e-12);
  EXPECT_NEAR(blocked_spread(testing::kV6), 6.66, 1e-12);
  EXPECT_NEAR(blocked_spread(testing::kV7), 7.60, 1e-12);
  EXPECT_NEAR(blocked_spread(testing::kV8), 7.00, 1e-12);
  EXPECT_NEAR(blocked_spread(testing::kV9), 6.55, 1e-12);
}

TEST(ExactSpreadTest, Theorem2NonSupermodularityCounterexample) {
  // f(X)=E(S, G[V\X]): f({v3})=6.66, f({v2,v3})=5.66, f({v3,v4})=5.66,
  // f({v2,v3,v4})=1.
  Graph g = PaperFigure1Graph();
  auto f = [&](std::vector<VertexId> blockers) {
    VertexMask mask = VertexMask::FromVertices(g.NumVertices(), blockers);
    auto r = ComputeExactSpread(g, {testing::kV1}, &mask);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  const double f_x = f({testing::kV3});
  const double f_y = f({testing::kV2, testing::kV3});
  const double f_xu = f({testing::kV3, testing::kV4});
  const double f_yu = f({testing::kV2, testing::kV3, testing::kV4});
  EXPECT_NEAR(f_x, 6.66, 1e-12);
  EXPECT_NEAR(f_y, 5.66, 1e-12);
  EXPECT_NEAR(f_xu, 5.66, 1e-12);
  EXPECT_NEAR(f_yu, 1.0, 1e-12);
  // Supermodularity would need f(X∪{x})−f(X) ≤ f(Y∪{x})−f(Y); the paper
  // shows −1 > −4.66 violates it.
  EXPECT_GT(f_xu - f_x, f_yu - f_y);
}

TEST(ExactSpreadTest, ActivationProbabilitiesExample1) {
  Graph g = PaperFigure1Graph();
  auto probs = ComputeExactActivationProbabilities(g, {testing::kV1});
  ASSERT_TRUE(probs.ok());
  EXPECT_NEAR((*probs)[testing::kV8], 0.6, 1e-12);
  EXPECT_NEAR((*probs)[testing::kV7], 0.06, 1e-12);
  EXPECT_DOUBLE_EQ((*probs)[testing::kV1], 1.0);
  EXPECT_DOUBLE_EQ((*probs)[testing::kV9], 1.0);
}

TEST(ExactSpreadTest, PathClosedForm) {
  // Path with uniform p: E = Σ_{i=0..n-1} p^i.
  const double p = 0.5;
  Graph g = PathGraph(8, p);
  auto spread = ComputeExactSpread(g, {0});
  ASSERT_TRUE(spread.ok());
  double expected = 0;
  double term = 1;
  for (int i = 0; i < 8; ++i) {
    expected += term;
    term *= p;
  }
  EXPECT_NEAR(*spread, expected, 1e-12);
}

TEST(ExactSpreadTest, StarClosedForm) {
  Graph g = StarGraph(11, 0.25);
  auto spread = ComputeExactSpread(g, {0});
  ASSERT_TRUE(spread.ok());
  EXPECT_NEAR(*spread, 1 + 10 * 0.25, 1e-12);
}

TEST(ExactSpreadTest, MultiSeedUnionSemantics) {
  // Two seeds on a p=0 graph: spread = 2 exactly.
  Graph g = PathGraph(5, 0.0);
  auto spread = ComputeExactSpread(g, {0, 3});
  ASSERT_TRUE(spread.ok());
  EXPECT_DOUBLE_EQ(*spread, 2.0);
}

TEST(ExactSpreadTest, RefusesTooManyUncertainEdges) {
  Graph g = WithConstantProbability(GenerateErdosRenyi(50, 400, 1), 0.5);
  ExactSpreadOptions opts;
  opts.max_uncertain_edges = 10;
  auto spread = ComputeExactSpread(g, {0}, nullptr, opts);
  ASSERT_FALSE(spread.ok());
  EXPECT_EQ(spread.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExactSpreadTest, UncertainEdgeLimitCountsOnlyReachableRegion) {
  // Uncertain edges outside the seed-reachable region must not count
  // against the limit: seed 0 can only reach {0,1}, the rest of the graph
  // is unreachable from it.
  GraphBuilder b;
  b.AddEdge(0, 1, 0.5);
  for (VertexId v = 2; v < 40; ++v) b.AddEdge(v, v + 1, 0.5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  ExactSpreadOptions opts;
  opts.max_uncertain_edges = 2;
  auto spread = ComputeExactSpread(*g, {0}, nullptr, opts);
  ASSERT_TRUE(spread.ok());
  EXPECT_NEAR(*spread, 1.5, 1e-12);
}

TEST(ExactSpreadTest, AgreesWithMonteCarloOnRandomSmallGraph) {
  Graph g = WithUniformProbability(GenerateErdosRenyi(12, 20, 3), 0.1, 0.9, 4);
  auto exact = ComputeExactSpread(g, {0});
  ASSERT_TRUE(exact.ok());
  MonteCarloOptions mc;
  mc.rounds = 300000;
  mc.seed = 9;
  double estimate = EstimateSpread(g, {0}, mc);
  EXPECT_NEAR(estimate, *exact, 0.05);
}

TEST(ExactSpreadTest, BlockedSeedYieldsZero) {
  Graph g = PathGraph(4, 1.0);
  VertexMask mask(4);
  mask.Set(0);
  auto spread = ComputeExactSpread(g, {0}, &mask);
  ASSERT_TRUE(spread.ok());
  EXPECT_DOUBLE_EQ(*spread, 0.0);
}

TEST(ExactSpreadTest, DuplicateAndBlockedSeedsAddNothing) {
  Graph g = WithUniformProbability(GenerateErdosRenyi(12, 20, 3), 0.1, 0.9, 4);
  VertexMask mask(g.NumVertices());
  mask.Set(7);
  const std::vector<VertexId> seeds = {0, 7, 5, 0, 5};
  auto spread = ComputeExactSpread(g, seeds, &mask);
  auto probs = ComputeExactActivationProbabilities(g, seeds, &mask);
  ASSERT_TRUE(spread.ok());
  ASSERT_TRUE(probs.ok());
  double total = 0;
  for (double p : *probs) total += p;
  EXPECT_NEAR(total, *spread, 1e-12);
  EXPECT_EQ((*probs)[7], 0.0);
  EXPECT_NEAR((*probs)[0], 1.0, 1e-12);
  EXPECT_NEAR((*probs)[5], 1.0, 1e-12);
  // The same worlds in the same order: the same bits.
  auto clean = ComputeExactSpread(g, {0, 5}, &mask);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*spread, *clean);
}

TEST(ExactSpreadTest, SixtyFourUncertainEdgesAreRefusedAtAnyCap) {
  // 2^64 worlds overflow the world counter: every exact path refuses
  // them, even under a cap of 64, and EvaluateSpread falls back to
  // Monte-Carlo. The true spread is 1 + 64 · 0.5 = 33.
  Graph g = StarGraph(65, 0.5);
  ExactSpreadOptions opts;
  opts.max_uncertain_edges = 64;
  auto spread = ComputeExactSpread(g, {0}, nullptr, opts);
  ASSERT_FALSE(spread.ok());
  EXPECT_EQ(spread.status().code(), StatusCode::kResourceExhausted);
  auto probs = ComputeExactActivationProbabilities(g, {0}, nullptr, opts);
  ASSERT_FALSE(probs.ok());
  EXPECT_EQ(probs.status().code(), StatusCode::kResourceExhausted);
  auto delta = ComputeSpreadDecreaseExact(g, 0, nullptr, 64);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kResourceExhausted);

  EvaluationOptions eval;
  eval.prefer_exact = true;
  eval.max_uncertain_edges = 64;
  eval.mc_rounds = 20000;
  EXPECT_NEAR(EvaluateSpread(g, {0}, {}, eval), 33.0, 1.0);
}

TEST(ExactSpreadTest, SeedOutOfRangeIsTypedError) {
  Graph g = PathGraph(4, 0.5);
  auto spread = ComputeExactSpread(g, {0, 4});
  ASSERT_FALSE(spread.ok());
  EXPECT_EQ(spread.status().code(), StatusCode::kOutOfRange);
  auto probs = ComputeExactActivationProbabilities(g, {4});
  ASSERT_FALSE(probs.ok());
  EXPECT_EQ(probs.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace vblock
