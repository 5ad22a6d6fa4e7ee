// Tests for the §V-E extension: AdvancedGreedy / GreedyReplace running on
// triggering-model samples (IC-as-triggering must match plain IC; LT must
// drive down the LT spread).

#include <gtest/gtest.h>

#include <algorithm>

#include "cascade/triggering.h"
#include "core/greedy.h"
#include "core/unified_instance.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

using testing::PaperFigure1Graph;

TEST(TriggeringAgTest, IcTriggeringPicksV5OnToyGraph) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  IcTriggeringModel ic;
  GreedyOptions opts;
  opts.budget = 1;
  opts.theta = 20000;
  opts.seed = 3;
  opts.triggering_model = &ic;
  auto sel = AdvancedGreedy(inst.graph, inst.root, opts);
  ASSERT_EQ(sel.blockers.size(), 1u);
  EXPECT_EQ(inst.to_original[sel.blockers[0]], testing::kV5);
}

TEST(TriggeringGrTest, IcTriggeringMatchesIcSamplingChoice) {
  Graph g = PaperFigure1Graph();
  UnifiedInstance inst = UnifySeeds(g, {testing::kV1});
  IcTriggeringModel ic;

  GreedyOptions with_trigger;
  with_trigger.budget = 2;
  with_trigger.theta = 20000;
  with_trigger.seed = 5;
  with_trigger.triggering_model = &ic;
  auto a = GreedyReplace(inst.graph, inst.root, with_trigger);

  GreedyOptions plain = with_trigger;
  plain.triggering_model = nullptr;
  auto b = GreedyReplace(inst.graph, inst.root, plain);

  // Identical blocker SETS (both must find {v2, v4}).
  auto sort_ids = [](std::vector<VertexId> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sort_ids(a.blockers), sort_ids(b.blockers));
}

TEST(TriggeringGrTest, LtBlockingReducesLtSpread) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(400, 3, 11));
  UnifiedInstance inst = UnifySeeds(g, {0});
  // WC weights on the unified graph may exceed 1 where super-seed edges
  // merge; renormalize to a valid LT weighting.
  GraphBuilder fix;
  fix.ReserveVertices(inst.graph.NumVertices());
  for (VertexId v = 0; v < inst.graph.NumVertices(); ++v) {
    double sum = 0;
    for (double w : inst.graph.InProbabilities(v)) sum += w;
    const double scale = sum > 1.0 ? 1.0 / sum : 1.0;
    auto sources = inst.graph.InNeighbors(v);
    auto weights = inst.graph.InProbabilities(v);
    for (size_t k = 0; k < sources.size(); ++k) {
      fix.AddEdge(sources[k], v, weights[k] * scale);
    }
  }
  auto fixed = fix.Build();
  ASSERT_TRUE(fixed.ok());
  Graph lt_graph = std::move(fixed.value());
  LtTriggeringModel lt(lt_graph);

  GreedyOptions opts;
  opts.budget = 10;
  opts.theta = 3000;
  opts.seed = 7;
  opts.triggering_model = &lt;
  auto sel = GreedyReplace(lt_graph, inst.root, opts);
  EXPECT_LE(sel.blockers.size(), 10u);
  EXPECT_FALSE(sel.blockers.empty());

  const double before =
      EstimateTriggeringSpread(lt_graph, lt, {inst.root}, 20000, 9);
  VertexMask mask(lt_graph.NumVertices());
  for (VertexId b : sel.blockers) mask.Set(b);
  const double after =
      EstimateTriggeringSpread(lt_graph, lt, {inst.root}, 20000, 9, &mask);
  EXPECT_LT(after, before);
}

TEST(TriggeringAgTest, DeterministicInSeed) {
  Graph g = WithWeightedCascade(GenerateErdosRenyi(150, 900, 13));
  UnifiedInstance inst = UnifySeeds(g, {0, 1});
  IcTriggeringModel ic;
  GreedyOptions opts;
  opts.budget = 5;
  opts.theta = 1000;
  opts.seed = 17;
  opts.triggering_model = &ic;
  auto a = AdvancedGreedy(inst.graph, inst.root, opts);
  auto b = AdvancedGreedy(inst.graph, inst.root, opts);
  EXPECT_EQ(a.blockers, b.blockers);
}

}  // namespace
}  // namespace vblock
