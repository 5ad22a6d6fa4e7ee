// Unit tests for the multi-seed → super-seed reduction (paper §V).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "cascade/exact_spread.h"
#include "cascade/monte_carlo.h"
#include "core/unified_instance.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

using testing::PaperFigure1Graph;
using testing::PathGraph;

TEST(UnifySeedsTest, SingleSeedKeepsStructure) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  // 8 non-seeds + super-seed.
  EXPECT_EQ(inst.graph.NumVertices(), 9u);
  EXPECT_EQ(inst.num_seeds, 1u);
  EXPECT_EQ(inst.root, 8u);
  // Same edge count: v1's 2 out-edges become 2 super-seed edges.
  EXPECT_EQ(inst.graph.NumEdges(), 10u);
  // Spread must be preserved exactly (|S|=1 → identity).
  auto orig = ComputeExactSpread(g, {testing::kV1});
  auto unified = ComputeExactSpread(inst.graph, {inst.root});
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(unified.ok());
  EXPECT_NEAR(inst.ToOriginalSpread(*unified), *orig, 1e-12);
}

TEST(UnifySeedsTest, IdMappingsAreConsistent) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV5});
  EXPECT_EQ(inst.to_unified[testing::kV5], kInvalidVertex);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v == testing::kV5) continue;
    VertexId u = inst.to_unified[v];
    ASSERT_NE(u, kInvalidVertex);
    EXPECT_EQ(inst.to_original[u], v);
  }
  EXPECT_EQ(inst.to_original[inst.root], kInvalidVertex);
}

TEST(UnifySeedsTest, NoisyOrMergesParallelSeedInfluence) {
  // Seeds 0 and 1 both point at 2 with p=0.5 → super-seed edge 1-(0.5)^2.
  GraphBuilder b;
  b.AddEdge(0, 2, 0.5);
  b.AddEdge(1, 2, 0.5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  UnifiedInstance inst = UnifySeeds(*g, {0, 1});
  EXPECT_EQ(inst.graph.NumVertices(), 2u);  // vertex 2 + super-seed
  EXPECT_EQ(inst.graph.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(inst.graph.OutProbabilities(inst.root)[0], 0.75);
  EXPECT_EQ(inst.num_seeds, 2u);
}

TEST(UnifySeedsTest, EdgesIntoSeedsDropped) {
  // 1 → 0 where 0 is the seed: edge disappears.
  GraphBuilder b;
  b.AddEdge(1, 0, 1.0);
  b.AddEdge(0, 1, 1.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  UnifiedInstance inst = UnifySeeds(*g, {0});
  EXPECT_EQ(inst.graph.NumEdges(), 1u);  // only super-seed -> 1
}

TEST(UnifySeedsTest, SeedToSeedEdgesIgnored) {
  GraphBuilder b;
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 0, 1.0);
  b.AddEdge(0, 2, 0.3);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  UnifiedInstance inst = UnifySeeds(*g, {0, 1});
  EXPECT_EQ(inst.graph.NumVertices(), 2u);
  EXPECT_EQ(inst.graph.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(inst.graph.OutProbabilities(inst.root)[0], 0.3);
}

TEST(UnifySeedsTest, DuplicateSeedsDeduplicated) {
  Graph g = PathGraph(5, 1.0);
  UnifiedInstance inst = UnifySeeds(g, {0, 0, 0});
  EXPECT_EQ(inst.num_seeds, 1u);
}

TEST(UnifySeedsTest, MultiSeedRootIsLastAndIdMapsComposeToIdentity) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(120, 3, 41));
  const std::vector<VertexId> seeds = {0, 3, 7};
  auto is_seed = [&seeds](VertexId v) {
    return std::find(seeds.begin(), seeds.end(), v) != seeds.end();
  };
  UnifiedInstance inst = UnifySeeds(g, seeds);
  ASSERT_EQ(inst.graph.NumVertices(), g.NumVertices() - seeds.size() + 1);
  EXPECT_EQ(inst.root, inst.graph.NumVertices() - 1);
  EXPECT_EQ(inst.num_seeds, seeds.size());
  EXPECT_EQ(inst.to_original[inst.root], kInvalidVertex);

  // to_original ∘ to_unified is the identity on non-seeds; seeds vanish.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (is_seed(v)) {
      EXPECT_EQ(inst.to_unified[v], kInvalidVertex);
    } else {
      ASSERT_NE(inst.to_unified[v], kInvalidVertex);
      EXPECT_EQ(inst.to_original[inst.to_unified[v]], v);
    }
  }

  // Mapped back to original ids, the non-root edges are exactly the
  // original non-seed -> non-seed edges, probabilities bit-for-bit.
  using MappedEdge = std::tuple<VertexId, VertexId, double>;
  std::vector<MappedEdge> expected, mapped;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    if (is_seed(u)) continue;
    auto targets = g.OutNeighbors(u);
    auto probs = g.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      if (!is_seed(targets[k])) expected.emplace_back(u, targets[k], probs[k]);
    }
  }
  for (VertexId u = 0; u < inst.root; ++u) {
    auto targets = inst.graph.OutNeighbors(u);
    auto probs = inst.graph.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      mapped.emplace_back(inst.to_original[u], inst.to_original[targets[k]],
                          probs[k]);
    }
  }
  std::sort(expected.begin(), expected.end());
  std::sort(mapped.begin(), mapped.end());
  EXPECT_EQ(mapped, expected);
}

TEST(UnifySeedsTest, SpreadEquivalenceMultiSeedExact) {
  // Exact check on a small random graph with 3 seeds.
  Graph g = WithUniformProbability(GenerateErdosRenyi(12, 18, 5), 0.2, 0.9, 6);
  std::vector<VertexId> seeds = {0, 3, 7};
  auto orig = ComputeExactSpread(g, seeds);
  UnifiedInstance inst = UnifySeeds(g, seeds);
  auto unified = ComputeExactSpread(inst.graph, {inst.root});
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(unified.ok());
  EXPECT_NEAR(inst.ToOriginalSpread(*unified), *orig, 1e-9);
}

TEST(UnifySeedsTest, SpreadEquivalenceMultiSeedMonteCarlo) {
  // Monte-Carlo check on a larger instance where exact is infeasible.
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(400, 3, 7));
  std::vector<VertexId> seeds = {1, 10, 50, 200};
  MonteCarloOptions mc;
  mc.rounds = 60000;
  mc.seed = 3;
  double orig = EstimateSpread(g, seeds, mc);
  UnifiedInstance inst = UnifySeeds(g, seeds);
  double unified = EstimateSpread(inst.graph, {inst.root}, mc);
  EXPECT_NEAR(inst.ToOriginalSpread(unified), orig, 0.15);
}

TEST(UnifySeedsTest, BlockerEquivalenceUnderMapping) {
  // Blocking u in the original graph ≡ blocking to_unified[u] in the
  // unified graph (checked via exact spreads).
  Graph g = PaperFigure1Graph();
  std::vector<VertexId> seeds = {testing::kV1};
  UnifiedInstance inst = UnifySeeds(g, seeds);
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    VertexMask orig_mask(g.NumVertices());
    orig_mask.Set(v);
    auto orig = ComputeExactSpread(g, seeds, &orig_mask);
    VertexMask uni_mask(inst.graph.NumVertices());
    uni_mask.Set(inst.to_unified[v]);
    auto unified = ComputeExactSpread(inst.graph, {inst.root}, &uni_mask);
    ASSERT_TRUE(orig.ok() && unified.ok());
    EXPECT_NEAR(inst.ToOriginalSpread(*unified), *orig, 1e-12)
        << "blocking v" << (v + 1);
  }
}

TEST(UnifySeedsTest, BlockersToOriginalMapsBack) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  std::vector<VertexId> unified = {inst.to_unified[testing::kV5],
                                   inst.to_unified[testing::kV8]};
  auto original = inst.BlockersToOriginal(unified);
  EXPECT_EQ(original,
            (std::vector<VertexId>{testing::kV5, testing::kV8}));
}

}  // namespace
}  // namespace vblock
