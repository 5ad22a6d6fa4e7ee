// Tests for the three blocker-selection algorithms (Algorithms 1, 3, 4) on
// the paper's worked examples (Table III) and structural sanity properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "cascade/exact_spread.h"
#include "core/baseline_greedy.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/solver.h"
#include "core/unified_instance.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

using testing::PaperFigure1Graph;

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double ExactSpreadWithBlockers(const Graph& g,
                               const std::vector<VertexId>& seeds,
                               const std::vector<VertexId>& blockers) {
  VertexMask mask = VertexMask::FromVertices(g.NumVertices(), blockers);
  auto r = ComputeExactSpread(g, seeds, &mask);
  EXPECT_TRUE(r.ok());
  return *r;
}

// ------------------------------------------------- Table III: Greedy (AG) --

TEST(AdvancedGreedyTest, TableIIIBudget1PicksV5) {
  // Greedy with b=1 picks v5 (largest Δ = 4.66), spread becomes 3.
  Graph g = PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kAdvancedGreedy;
  opts.budget = 1;
  opts.theta = 20000;
  opts.seed = 5;
  auto result = SolveImin(g, {testing::kV1}, opts);
  ASSERT_EQ(result->blockers.size(), 1u);
  EXPECT_EQ(result->blockers[0], testing::kV5);
  EXPECT_NEAR(ExactSpreadWithBlockers(g, {testing::kV1}, result->blockers), 3.0,
              1e-12);
}

TEST(AdvancedGreedyTest, TableIIIBudget2PicksV5ThenOutNeighbor) {
  // Greedy with b=2: {v5, v2 or v4}, spread 2.
  Graph g = PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kAdvancedGreedy;
  opts.budget = 2;
  opts.theta = 20000;
  opts.seed = 6;
  auto result = SolveImin(g, {testing::kV1}, opts);
  ASSERT_EQ(result->blockers.size(), 2u);
  EXPECT_EQ(result->blockers[0], testing::kV5);
  EXPECT_TRUE(result->blockers[1] == testing::kV2 ||
              result->blockers[1] == testing::kV4);
  EXPECT_NEAR(ExactSpreadWithBlockers(g, {testing::kV1}, result->blockers), 2.0,
              1e-12);
}

TEST(AdvancedGreedyTest, RoundDeltasAreRecorded) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  GreedyOptions opts;
  opts.budget = 2;
  opts.theta = 20000;
  opts.seed = 7;
  auto sel = AdvancedGreedy(inst.graph, inst.root, opts);
  ASSERT_EQ(sel.stats.round_best_delta.size(), 2u);
  EXPECT_NEAR(sel.stats.round_best_delta[0], 4.66, 0.1);
  EXPECT_NEAR(sel.stats.round_best_delta[1], 1.0, 0.05);
  EXPECT_EQ(sel.stats.rounds_completed, 2u);
}

TEST(AdvancedGreedyTest, BudgetExceedingCandidatesStops) {
  Graph g = testing::PathGraph(3, 1.0);
  UnifiedInstance inst = UnifySeeds(g, {0});
  GreedyOptions opts;
  opts.budget = 10;
  opts.theta = 100;
  auto sel = AdvancedGreedy(inst.graph, inst.root, opts);
  EXPECT_EQ(sel.blockers.size(), 2u);  // only 2 non-seed vertices exist
}

TEST(AdvancedGreedyTest, DeadlineReturnsPartialResult) {
  // Large enough that even the pooled engine cannot finish the budget in
  // 0.2s (the pre-pool implementation timed out on a tenth of this size).
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(50000, 4, 3));
  UnifiedInstance inst = UnifySeeds(g, {0});
  GreedyOptions opts;
  opts.budget = 100000;  // far more than feasible
  opts.theta = 20000;
  opts.time_limit_seconds = 0.2;
  auto sel = AdvancedGreedy(inst.graph, inst.root, opts);
  EXPECT_TRUE(sel.stats.timed_out);
  EXPECT_LT(sel.blockers.size(), 100000u);
}

TEST(AdvancedGreedyTest, ReuseModesPickTheSameBlockersAndRoundDeltas) {
  // AG never unblocks, and a Block prunes the stored worlds in both reuse
  // modes, so the two modes score every round on the same samples.
  for (Graph g : {WithWeightedCascade(GenerateBarabasiAlbert(600, 3, 5)),
                  WithTrivalency(GenerateBarabasiAlbert(600, 3, 6), 7)}) {
    for (SamplerKind kind :
         {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
      GreedyOptions opts;
      opts.budget = 10;
      opts.theta = 500;
      opts.seed = 3;
      opts.sampler_kind = kind;
      opts.sample_reuse = SampleReuse::kPrune;
      const BlockerSelection prune = AdvancedGreedy(g, 0, opts);
      opts.sample_reuse = SampleReuse::kResample;
      const BlockerSelection resample = AdvancedGreedy(g, 0, opts);
      ASSERT_EQ(prune.blockers.size(), 10u);
      EXPECT_EQ(prune.blockers, resample.blockers);
      EXPECT_EQ(prune.stats.round_best_delta, resample.stats.round_best_delta);
    }
  }
}

// ------------------------------------------------ Table III: OutNeighbors --

TEST(GreedyReplaceTest, TableIIIBudget1ReplacesWithV5) {
  // GR b=1: phase 1 picks v2 or v4; replacement swaps in v5 → spread 3.
  Graph g = PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kGreedyReplace;
  opts.budget = 1;
  opts.theta = 20000;
  opts.seed = 8;
  auto result = SolveImin(g, {testing::kV1}, opts);
  ASSERT_EQ(result->blockers.size(), 1u);
  EXPECT_EQ(result->blockers[0], testing::kV5);
  EXPECT_NEAR(ExactSpreadWithBlockers(g, {testing::kV1}, result->blockers), 3.0,
              1e-12);
}

TEST(GreedyReplaceTest, TableIIIBudget2KeepsBothOutNeighbors) {
  // GR b=2: {v2, v4} with spread 1 — strictly better than Greedy's 2.
  Graph g = PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kGreedyReplace;
  opts.budget = 2;
  opts.theta = 20000;
  opts.seed = 9;
  auto result = SolveImin(g, {testing::kV1}, opts);
  EXPECT_EQ(Sorted(result->blockers),
            (std::vector<VertexId>{testing::kV2, testing::kV4}));
  EXPECT_NEAR(ExactSpreadWithBlockers(g, {testing::kV1}, result->blockers), 1.0,
              1e-12);
}

TEST(GreedyReplaceTest, BudgetBeyondOutDegreeUsesAtMostOutDegree) {
  Graph g = PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kGreedyReplace;
  opts.budget = 5;
  opts.theta = 5000;
  opts.seed = 10;
  auto result = SolveImin(g, {testing::kV1}, opts);
  // dout(v1) = 2; blocking both out-neighbors is already optimal.
  EXPECT_EQ(Sorted(result->blockers),
            (std::vector<VertexId>{testing::kV2, testing::kV4}));
  EXPECT_NEAR(ExactSpreadWithBlockers(g, {testing::kV1}, result->blockers), 1.0,
              1e-12);
}

TEST(GreedyReplaceTest, EarlyTerminationOnStableBlocker) {
  // On the star graph every out-neighbor is optimal; the first replacement
  // re-selects the removed vertex and the loop stops.
  Graph g = testing::StarGraph(10, 1.0);
  UnifiedInstance inst = UnifySeeds(g, {0});
  GreedyOptions opts;
  opts.budget = 3;
  opts.theta = 500;
  opts.seed = 11;
  auto sel = GreedyReplace(inst.graph, inst.root, opts);
  EXPECT_EQ(sel.blockers.size(), 3u);
  EXPECT_EQ(sel.stats.replacements, 0u);  // early terminated immediately
}

TEST(GreedyReplaceTest, NeverWorseThanPureOutNeighborChoice) {
  // The paper: "the expected spread of GreedyReplace is certainly not larger
  // than the algorithm which only blocks the out-neighbors."
  Graph g = WithTrivalency(GenerateRmat(7, 600, 0.5, 0.2, 0.2, 31), 31);
  std::vector<VertexId> seeds = {0};
  if (g.OutDegree(0) == 0) GTEST_SKIP() << "seed has no out-neighbors";

  SolverOptions gr_opts;
  gr_opts.algorithm = Algorithm::kGreedyReplace;
  gr_opts.budget = 3;
  gr_opts.theta = 4000;
  gr_opts.seed = 12;
  auto gr = SolveImin(g, seeds, gr_opts);

  // Pure out-neighbor baseline: block up to b out-neighbors greedily by Δ.
  UnifiedInstance inst = UnifySeeds(g, seeds);
  GreedyOptions on_opts;
  on_opts.budget = 3;
  on_opts.theta = 4000;
  on_opts.seed = 12;
  on_opts.time_limit_seconds = 0;
  // Emulate OutNeighbors by running GR phase 1 only: block first b
  // out-neighbors of the root by out-degree order.
  auto root_out = inst.graph.OutNeighbors(inst.root);
  std::vector<VertexId> on_blockers;
  for (size_t i = 0; i < root_out.size() && i < 3; ++i) {
    on_blockers.push_back(inst.to_original[root_out[i]]);
  }

  EvaluationOptions eval;
  eval.mc_rounds = 30000;
  double gr_spread = EvaluateSpread(g, seeds, gr->blockers, eval);
  double on_spread = EvaluateSpread(g, seeds, on_blockers, eval);
  EXPECT_LE(gr_spread, on_spread + 0.25);  // MC tolerance
}

// -------------------------------------------------------- BaselineGreedy --

TEST(BaselineGreedyTest, TableIIIBudget1PicksV5) {
  Graph g = PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kBaselineGreedy;
  opts.budget = 1;
  opts.mc_rounds = 4000;
  opts.seed = 13;
  auto result = SolveImin(g, {testing::kV1}, opts);
  ASSERT_EQ(result->blockers.size(), 1u);
  EXPECT_EQ(result->blockers[0], testing::kV5);
}

TEST(BaselineGreedyTest, AgreesWithAdvancedGreedyOnToyGraph) {
  // "Our computation based on sampled graphs will not sacrifice the
  // effectiveness, compared with MCS" — identical picks on the toy graph.
  Graph g = PaperFigure1Graph();
  SolverOptions bg_opts;
  bg_opts.algorithm = Algorithm::kBaselineGreedy;
  bg_opts.budget = 2;
  bg_opts.mc_rounds = 4000;
  bg_opts.seed = 14;
  auto bg = SolveImin(g, {testing::kV1}, bg_opts);

  SolverOptions ag_opts;
  ag_opts.algorithm = Algorithm::kAdvancedGreedy;
  ag_opts.budget = 2;
  ag_opts.theta = 4000;
  ag_opts.seed = 14;
  auto ag = SolveImin(g, {testing::kV1}, ag_opts);

  ASSERT_EQ(bg->blockers.size(), 2u);
  ASSERT_EQ(ag->blockers.size(), 2u);
  EXPECT_EQ(bg->blockers[0], ag->blockers[0]);  // both pick v5 first
  // Second pick is v2-or-v4 for both.
  EXPECT_TRUE(bg->blockers[1] == testing::kV2 || bg->blockers[1] == testing::kV4);
}

TEST(BaselineGreedyTest, CommonRandomNumbersVariantAlsoPicksV5) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  BaselineGreedyOptions opts;
  opts.budget = 1;
  opts.mc_rounds = 4000;
  opts.seed = 15;
  opts.common_random_numbers = true;
  auto sel = BaselineGreedy(inst.graph, inst.root, opts);
  ASSERT_EQ(sel.blockers.size(), 1u);
  EXPECT_EQ(inst.to_original[sel.blockers[0]], testing::kV5);
}

TEST(BaselineGreedyTest, RestrictToReachableGivesSameChoice) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  BaselineGreedyOptions opts;
  opts.budget = 1;
  opts.mc_rounds = 4000;
  opts.seed = 16;
  opts.restrict_to_reachable = true;
  auto sel = BaselineGreedy(inst.graph, inst.root, opts);
  ASSERT_EQ(sel.blockers.size(), 1u);
  EXPECT_EQ(inst.to_original[sel.blockers[0]], testing::kV5);
}

TEST(BaselineGreedyTest, DeadlineProducesPartialResult) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(500, 3, 17));
  UnifiedInstance inst = UnifySeeds(g, {0});
  BaselineGreedyOptions opts;
  opts.budget = 50;
  opts.mc_rounds = 2000;
  opts.time_limit_seconds = 0.3;
  auto sel = BaselineGreedy(inst.graph, inst.root, opts);
  EXPECT_TRUE(sel.stats.timed_out);
  EXPECT_LT(sel.blockers.size(), 50u);
}

// ------------------------------------------------------------ Solver API --

TEST(SolverTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kRandom), "RA");
  EXPECT_STREQ(AlgorithmName(Algorithm::kOutDegree), "OD");
  EXPECT_STREQ(AlgorithmName(Algorithm::kPageRank), "PR");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBaselineGreedy), "BG");
  EXPECT_STREQ(AlgorithmName(Algorithm::kAdvancedGreedy), "AG");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGreedyReplace), "GR");
}

TEST(SolverTest, BlockersNeverContainSeeds) {
  Graph g = WithTrivalency(GenerateRmat(7, 800, 0.55, 0.2, 0.2, 21), 22);
  std::vector<VertexId> seeds = {0, 1, 2};
  for (Algorithm algo :
       {Algorithm::kRandom, Algorithm::kOutDegree, Algorithm::kPageRank,
        Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
    SolverOptions opts;
    opts.algorithm = algo;
    opts.budget = 5;
    opts.theta = 500;
    opts.seed = 23;
    auto result = SolveImin(g, seeds, opts);
    EXPECT_LE(result->blockers.size(), 5u) << AlgorithmName(algo);
    for (VertexId b : result->blockers) {
      EXPECT_TRUE(b != 0 && b != 1 && b != 2)
          << AlgorithmName(algo) << " blocked a seed";
    }
  }
}

// Knobs the chosen algorithm cannot run with are typed errors, not
// aborts inside the sampler or the Monte-Carlo estimator.
TEST(SolverTest, UnrunnableKnobsReturnInvalidArgument) {
  Graph g = testing::PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kAdvancedGreedy;
  opts.budget = 1;
  opts.theta = 0;
  auto result = SolveImin(g, {testing::kV1}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  opts.algorithm = Algorithm::kGreedyReplace;
  EXPECT_EQ(SolveImin(g, {testing::kV1}, opts).status().code(),
            StatusCode::kInvalidArgument);

  opts.algorithm = Algorithm::kBaselineGreedy;
  opts.mc_rounds = 0;
  EXPECT_EQ(SolveImin(g, {testing::kV1}, opts).status().code(),
            StatusCode::kInvalidArgument);

  opts.algorithm = Algorithm::kAdvancedGreedy;
  opts.theta = 100;
  opts.time_limit_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(SolveImin(g, {testing::kV1}, opts).status().code(),
            StatusCode::kInvalidArgument);

  // Knobs an algorithm never reads are not checked for it.
  opts.algorithm = Algorithm::kOutDegree;
  opts.theta = 0;
  opts.time_limit_seconds = 0;
  EXPECT_TRUE(SolveImin(g, {testing::kV1}, opts).ok());
}

TEST(SolverTest, GreedyReplaceDeadlinePropagates) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(3000, 4, 29));
  SolverOptions opts;
  opts.algorithm = Algorithm::kGreedyReplace;
  opts.budget = 500;
  opts.theta = 5000;
  opts.seed = 31;
  opts.time_limit_seconds = 0.2;
  auto result = SolveImin(g, {0}, opts);
  EXPECT_TRUE(result->stats.timed_out);
  EXPECT_LT(result->blockers.size(), 500u);
}

TEST(SolverTest, StatsRecordTiming) {
  Graph g = testing::PaperFigure1Graph();
  SolverOptions opts;
  opts.algorithm = Algorithm::kAdvancedGreedy;
  opts.budget = 2;
  opts.theta = 1000;
  auto result = SolveImin(g, {testing::kV1}, opts);
  EXPECT_GT(result->stats.seconds, 0.0);
  EXPECT_EQ(result->stats.rounds_completed, 2u);
}

TEST(GreedyReplaceTest, ReplacementCounterTracksSwaps) {
  // Toy graph b=1: v2 (or v4) is initially picked and then swapped for v5,
  // so exactly one replacement must be recorded.
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  GreedyOptions opts;
  opts.budget = 1;
  opts.theta = 20000;
  opts.seed = 33;
  auto sel = GreedyReplace(inst.graph, inst.root, opts);
  EXPECT_EQ(sel.stats.replacements, 1u);
  ASSERT_EQ(sel.blockers.size(), 1u);
  EXPECT_EQ(inst.to_original[sel.blockers[0]], testing::kV5);
}

// Deterministic multi-seed instance: every edge has p=1 (always live) or
// p=0 (never live), so every sampled world is the same graph. Gate
// vertices 2/3/4 guard chains of strictly different lengths, so each
// greedy pick is a unique maximum and the answer is known exactly.
//
//   seeds {0,1};  0 -> 2 -> 5 -> ... -> 13   (blocking 2 saves 10)
//                 1 -> 3 -> 14 -> ... -> 18  (blocking 3 saves 6)
//                 1 -> 4 -> 19 -> 20         (blocking 4 saves 3)
//                 0 -> 21 (p=0 decoy)
Graph DecisiveMultiSeedInstance() {
  GraphBuilder builder;
  builder.AddEdge(0, 2, 1.0);
  builder.AddEdge(1, 3, 1.0);
  builder.AddEdge(1, 4, 1.0);
  const VertexId chain_a[] = {2, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  for (size_t i = 0; i + 1 < std::size(chain_a); ++i) {
    builder.AddEdge(chain_a[i], chain_a[i + 1], 1.0);
  }
  const VertexId chain_b[] = {3, 14, 15, 16, 17, 18};
  for (size_t i = 0; i + 1 < std::size(chain_b); ++i) {
    builder.AddEdge(chain_b[i], chain_b[i + 1], 1.0);
  }
  builder.AddEdge(4, 19, 1.0);
  builder.AddEdge(19, 20, 1.0);
  builder.AddEdge(0, 21, 0.0);
  auto g = builder.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(*g);
}

TEST(SolverTest, MultiSeedSolvesReturnKnownOriginalIdBlockers) {
  Graph g = DecisiveMultiSeedInstance();
  const std::vector<VertexId> seeds = {0, 1};
  for (Algorithm algorithm :
       {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
    for (SampleReuse reuse : {SampleReuse::kPrune, SampleReuse::kResample}) {
      SolverOptions opts;
      opts.algorithm = algorithm;
      opts.budget = 2;
      opts.theta = 200;
      opts.seed = 7;
      opts.sample_reuse = reuse;
      auto result = SolveImin(g, seeds, opts);
      ASSERT_TRUE(result.ok());
      std::vector<VertexId> blockers = result->blockers;
      std::sort(blockers.begin(), blockers.end());
      EXPECT_EQ(blockers, (std::vector<VertexId>{2, 3}))
          << AlgorithmName(algorithm)
          << " reuse=" << static_cast<int>(reuse);
    }
  }
}

TEST(SolverTest, MultiSeedSpreadFloorsAtSeedCount) {
  // Blocking all out-neighbors of all seeds drives the spread to exactly
  // |S| (Table VII's floor of 10).
  Graph g = testing::StarGraph(30, 1.0);
  std::vector<VertexId> seeds = {0};
  SolverOptions opts;
  opts.algorithm = Algorithm::kGreedyReplace;
  opts.budget = 29;
  opts.theta = 300;
  opts.seed = 31;
  auto result = SolveImin(g, seeds, opts);
  EXPECT_NEAR(ExactSpreadWithBlockers(g, seeds, result->blockers), 1.0, 1e-12);
}

}  // namespace
}  // namespace vblock
