// Tests for Algorithm 2 (DecreaseESComputation) — the paper's core
// estimator — against the exact Example-2 golden values and Monte-Carlo
// references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cascade/exact_spread.h"
#include "core/edge_blocking.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

using testing::PaperFigure1Graph;
using testing::PathGraph;
using testing::StarGraph;

// Example 2 golden Δ values for the Figure-1 graph, seed v1.
// (The paper's prose lists "v7, v8, v9 → 0.66, 0.06, 1.11"; the
// self-consistent assignment — confirmed by Example 1's spreads — is
// Δ(v7)=0.06, Δ(v8)=0.66, Δ(v9)=1.11; see docs/DESIGN.md §2.)
const std::vector<std::pair<VertexId, double>> kExample2Deltas = {
    {testing::kV2, 1.0},  {testing::kV3, 1.0},  {testing::kV4, 1.0},
    {testing::kV5, 4.66}, {testing::kV6, 1.0},  {testing::kV7, 0.06},
    {testing::kV8, 0.66}, {testing::kV9, 1.11},
};

TEST(SpreadDecreaseExactTest, MatchesPaperExample2Exactly) {
  Graph g = PaperFigure1Graph();
  auto result = ComputeSpreadDecreaseExact(g, testing::kV1);
  ASSERT_TRUE(result.ok());
  for (auto [v, expected] : kExample2Deltas) {
    EXPECT_NEAR(result->delta[v], expected, 1e-12) << "vertex v" << (v + 1);
  }
  EXPECT_NEAR(result->expected_spread, 7.66, 1e-12);
}

TEST(SpreadDecreaseSampledTest, ConvergesToExample2) {
  Graph g = PaperFigure1Graph();
  SpreadDecreaseOptions opts;
  opts.theta = 200000;
  opts.seed = 99;
  SpreadDecreaseResult result = ComputeSpreadDecrease(g, testing::kV1, opts);
  for (auto [v, expected] : kExample2Deltas) {
    EXPECT_NEAR(result.delta[v], expected, 0.02) << "vertex v" << (v + 1);
  }
  EXPECT_NEAR(result.expected_spread, 7.66, 0.02);
}

TEST(SpreadDecreaseSampledTest, DeterministicInSeed) {
  Graph g = PaperFigure1Graph();
  SpreadDecreaseOptions opts;
  opts.theta = 500;
  opts.seed = 7;
  auto a = ComputeSpreadDecrease(g, testing::kV1, opts);
  auto b = ComputeSpreadDecrease(g, testing::kV1, opts);
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_DOUBLE_EQ(a.expected_spread, b.expected_spread);
}

TEST(SpreadDecreaseSampledTest, ThreadCountInvariant) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(300, 3, 5));
  SpreadDecreaseOptions opts1;
  opts1.theta = 2000;
  opts1.seed = 13;
  opts1.threads = 1;
  SpreadDecreaseOptions opts4 = opts1;
  opts4.threads = 4;
  auto a = ComputeSpreadDecrease(g, 0, opts1);
  auto b = ComputeSpreadDecrease(g, 0, opts4);
  ASSERT_EQ(a.delta.size(), b.delta.size());
  for (size_t i = 0; i < a.delta.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delta[i], b.delta[i]) << i;
  }
  EXPECT_DOUBLE_EQ(a.expected_spread, b.expected_spread);
}

TEST(SpreadDecreaseSampledTest, BlockedMaskShrinksDeltas) {
  Graph g = PaperFigure1Graph();
  VertexMask blocked(g.NumVertices());
  blocked.Set(testing::kV5);
  SpreadDecreaseOptions opts;
  opts.theta = 2000;
  opts.seed = 3;
  SpreadDecreaseResult result =
      ComputeSpreadDecrease(g, testing::kV1, opts, &blocked);
  // With v5 blocked only v2, v4 are reachable: Δ(v2)=Δ(v4)=1, rest 0.
  EXPECT_DOUBLE_EQ(result.delta[testing::kV2], 1.0);
  EXPECT_DOUBLE_EQ(result.delta[testing::kV4], 1.0);
  EXPECT_DOUBLE_EQ(result.delta[testing::kV3], 0.0);
  EXPECT_DOUBLE_EQ(result.delta[testing::kV5], 0.0);
  EXPECT_DOUBLE_EQ(result.delta[testing::kV8], 0.0);
  EXPECT_DOUBLE_EQ(result.expected_spread, 3.0);
}

TEST(SpreadDecreaseExactTest, DeltaEqualsSpreadDifferenceEverywhere) {
  // Theorem 4: Δ(u) = E({s},G) − E({s},G[V\{u}]) — cross-check Algorithm 2
  // against two exact spread computations, on a random graph.
  Graph g = WithUniformProbability(GenerateErdosRenyi(14, 25, 9), 0.3, 1.0, 10);
  auto result = ComputeSpreadDecreaseExact(g, 0);
  ASSERT_TRUE(result.ok());
  auto base = ComputeExactSpread(g, {0});
  ASSERT_TRUE(base.ok());
  for (VertexId u = 1; u < g.NumVertices(); ++u) {
    VertexMask mask(g.NumVertices());
    mask.Set(u);
    auto without = ComputeExactSpread(g, {0}, &mask);
    ASSERT_TRUE(without.ok());
    EXPECT_NEAR(result->delta[u], *base - *without, 1e-9) << "u=" << u;
  }
}

TEST(SpreadDecreaseTest, PathDeltasAreSuffixExpectations) {
  // On a path with p=1: blocking vertex i removes n-i vertices.
  const VertexId n = 7;
  Graph g = PathGraph(n, 1.0);
  SpreadDecreaseOptions opts;
  opts.theta = 100;
  opts.seed = 1;
  auto result = ComputeSpreadDecrease(g, 0, opts);
  for (VertexId v = 1; v < n; ++v) {
    EXPECT_DOUBLE_EQ(result.delta[v], static_cast<double>(n - v));
  }
}

TEST(SpreadDecreaseTest, StarDeltasAreIndependent) {
  Graph g = StarGraph(21, 0.5);
  SpreadDecreaseOptions opts;
  opts.theta = 40000;
  opts.seed = 21;
  auto result = ComputeSpreadDecrease(g, 0, opts);
  for (VertexId v = 1; v < 21; ++v) {
    EXPECT_NEAR(result.delta[v], 0.5, 0.02);
  }
}

TEST(SpreadDecreaseTriggeringTest, IcTriggeringMatchesIcSampler) {
  Graph g = PaperFigure1Graph();
  IcTriggeringModel model;
  SpreadDecreaseOptions opts;
  opts.theta = 150000;
  opts.seed = 23;
  auto result =
      ComputeSpreadDecreaseTriggering(g, model, testing::kV1, opts);
  for (auto [v, expected] : kExample2Deltas) {
    EXPECT_NEAR(result.delta[v], expected, 0.03) << "vertex v" << (v + 1);
  }
}

TEST(SpreadDecreaseTriggeringTest, LtPathIsDeterministic) {
  Graph g = WithWeightedCascade(PathGraph(6, 0.4));
  LtTriggeringModel model(g);
  SpreadDecreaseOptions opts;
  opts.theta = 200;
  opts.seed = 4;
  auto result = ComputeSpreadDecreaseTriggering(g, model, 0, opts);
  for (VertexId v = 1; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(result.delta[v], static_cast<double>(6 - v));
  }
}

TEST(SpreadDecreaseTest, DeltaOfRootAndUnreachableIsZero) {
  GraphBuilder b;
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);  // unreachable island
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  SpreadDecreaseOptions opts;
  opts.theta = 50;
  opts.seed = 2;
  auto result = ComputeSpreadDecrease(*g, 0, opts);
  EXPECT_DOUBLE_EQ(result.delta[0], 0.0);
  EXPECT_DOUBLE_EQ(result.delta[2], 0.0);
  EXPECT_DOUBLE_EQ(result.delta[3], 0.0);
  EXPECT_DOUBLE_EQ(result.delta[1], 1.0);
}

// The engine's build-time mask (the one-shot estimators' `blocked`) is
// part of its fresh state: unblocking one of its vertices is rejected —
// under kPrune the pristine worlds never expanded it, so the unblock would
// be silently wrong.
TEST(SpreadDecreaseEngineTest, BuildMaskVerticesCannotBeUnblocked) {
  Graph g = PaperFigure1Graph();
  VertexMask blocked(g.NumVertices());
  blocked.Set(testing::kV5);
  SpreadDecreaseOptions opts;
  opts.theta = 50;
  opts.sample_reuse = SampleReuse::kPrune;
  SpreadDecreaseEngine engine(g, testing::kV1, opts, nullptr, &blocked);
  ASSERT_TRUE(engine.Build());
  EXPECT_TRUE(engine.blocked().Test(testing::kV5));
  EXPECT_DEATH(engine.Unblock(testing::kV5), "build-time mask");
}

// FNV-1a over the bytes of every Δ entry and of the spread estimate.
uint64_t ResultDigest(const SpreadDecreaseResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (double d : r.delta) mix(d);
  mix(r.expected_spread);
  return h;
}

SpreadDecreaseOptions Opts(SamplerKind kind, uint32_t threads) {
  SpreadDecreaseOptions opts;
  opts.theta = 1000;
  opts.seed = 2024;
  opts.threads = threads;
  opts.sampler_kind = kind;
  return opts;
}

// Blocks the first `k` out-neighbours of `root`, so the mask always cuts
// into the sampled regions.
VertexMask MaskOutNeighbours(const Graph& g, VertexId root, size_t k) {
  VertexMask mask(g.NumVertices());
  const auto out = g.OutNeighbors(root);
  for (size_t j = 0; j < std::min(k, out.size()); ++j) mask.Set(out[j]);
  return mask;
}

// Pins every one-shot and exact estimator's output bits — sampled cases
// over both sampler kinds, 1 and 4 threads, with and without a blocked
// mask. The estimators share the engine's θ-loop (and one enumeration
// loop), so any change to the draw, the dominator pass or the
// aggregation shows up here.
TEST(SpreadDecreaseDigestTest, OutputsMatchPinnedDigests) {
  const Graph wc = WithWeightedCascade(GenerateBarabasiAlbert(400, 3, 5));
  const Graph tr = WithTrivalency(GenerateErdosRenyi(300, 3000, 8), 8);
  const LtTriggeringModel lt(wc);
  const EdgeSplitInstance split =
      SplitEdges(WithWeightedCascade(GenerateBarabasiAlbert(120, 2, 3)));
  const Graph small =
      WithUniformProbability(GenerateErdosRenyi(14, 25, 9), 0.3, 1.0, 10);
  const EdgeSplitInstance tiny = SplitEdges(PaperFigure1Graph());
  const VertexMask wc_mask = MaskOutNeighbours(wc, 0, 4);
  const VertexMask tr_mask = MaskOutNeighbours(tr, 0, 3);
  const VertexMask split_mask = MaskOutNeighbours(split.graph, 0, 3);
  const VertexMask small_mask = MaskOutNeighbours(small, 0, 1);
  const VertexMask tiny_mask = MaskOutNeighbours(tiny.graph, testing::kV1, 1);
  const SamplerKind kSkip = SamplerKind::kGeometricSkip;
  const SamplerKind kCoin = SamplerKind::kPerEdgeCoin;
  auto expect_digest = [](const char* name, const SpreadDecreaseResult& r,
                          uint64_t want) {
    const uint64_t got = ResultDigest(r);
    EXPECT_EQ(got, want) << name << ": 0x" << std::hex << got;
  };

  expect_digest("wc_skip_t1", ComputeSpreadDecrease(wc, 0, Opts(kSkip, 1)),
                0x393dc70e484fa800ULL);
  expect_digest("wc_skip_t4", ComputeSpreadDecrease(wc, 0, Opts(kSkip, 4)),
                0x393dc70e484fa800ULL);
  expect_digest("wc_coin_t1", ComputeSpreadDecrease(wc, 0, Opts(kCoin, 1)),
                0xedede607e7f6ae9dULL);
  expect_digest("wc_skip_mask_t1",
                ComputeSpreadDecrease(wc, 0, Opts(kSkip, 1), &wc_mask),
                0x47d23db7fa0d8d34ULL);
  expect_digest("wc_coin_mask_t4",
                ComputeSpreadDecrease(wc, 0, Opts(kCoin, 4), &wc_mask),
                0x995418c93b636010ULL);
  expect_digest("tr_skip_t1", ComputeSpreadDecrease(tr, 0, Opts(kSkip, 1)),
                0x6c6c2e8b96dcc991ULL);
  expect_digest("tr_coin_mask_t4",
                ComputeSpreadDecrease(tr, 0, Opts(kCoin, 4), &tr_mask),
                0x8ddab6eb9af4bc74ULL);
  expect_digest("tr_skip_mask_t4",
                ComputeSpreadDecrease(tr, 0, Opts(kSkip, 4), &tr_mask),
                0x3f7308c393bb4b17ULL);
  expect_digest("lt_skip_t1",
                ComputeSpreadDecreaseTriggering(wc, lt, 0, Opts(kSkip, 1)),
                0xeff0d20a853c4a71ULL);
  expect_digest(
      "lt_coin_mask_t4",
      ComputeSpreadDecreaseTriggering(wc, lt, 0, Opts(kCoin, 4), &wc_mask),
      0xaadc188cbe6440e6ULL);
  expect_digest("split_skip_t1",
                ComputeSpreadDecreaseWeighted(split.graph, 0, split.weights,
                                              Opts(kSkip, 1)),
                0x02648a5bb100dd3dULL);
  expect_digest("split_coin_t4",
                ComputeSpreadDecreaseWeighted(split.graph, 0, split.weights,
                                              Opts(kCoin, 4)),
                0x8db8089d5e5ef8dcULL);
  expect_digest("split_skip_mask_t4",
                ComputeSpreadDecreaseWeighted(split.graph, 0, split.weights,
                                              Opts(kSkip, 4), &split_mask),
                0x9aecae6d438a0240ULL);
  expect_digest("exact", *ComputeSpreadDecreaseExact(small, 0),
                0xfcfc039e2606ef4fULL);
  expect_digest("exact_mask",
                *ComputeSpreadDecreaseExact(small, 0, &small_mask),
                0x0adfb936cb41bb2eULL);
  expect_digest("exact_weighted",
                *ComputeSpreadDecreaseExactWeighted(tiny.graph, testing::kV1,
                                                    tiny.weights),
                0x5536c5f289c581b7ULL);
  expect_digest("exact_weighted_mask",
                *ComputeSpreadDecreaseExactWeighted(tiny.graph, testing::kV1,
                                                    tiny.weights, &tiny_mask),
                0x9d96b235ae577a5dULL);
}

// Theorem 5 convergence: the estimation error shrinks as θ grows.
class ThetaConvergence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ThetaConvergence, ErrorShrinksWithTheta) {
  Graph g = PaperFigure1Graph();
  SpreadDecreaseOptions opts;
  opts.theta = GetParam();
  opts.seed = 1234;
  auto result = ComputeSpreadDecrease(g, testing::kV1, opts);
  // Loose per-θ bound: ~5/sqrt(θ) absolute error on Δ(v5)=4.66.
  const double tolerance = 6.0 / std::sqrt(static_cast<double>(GetParam()));
  EXPECT_NEAR(result.delta[testing::kV5], 4.66, tolerance);
}

INSTANTIATE_TEST_SUITE_P(ThetaSweep, ThetaConvergence,
                         ::testing::Values(100u, 1000u, 10000u, 100000u));

}  // namespace
}  // namespace vblock
