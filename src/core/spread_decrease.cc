#include "core/spread_decrease.h"

#include "common/check.h"
#include "core/spread_decrease_engine.h"
#include "sampling/world_enumerator.h"

namespace vblock {

namespace {

// One-shot Algorithm 2: a deadline-free Build() of a temporary engine.
SpreadDecreaseResult ScoreOnce(const Graph& g, VertexId root,
                               const SpreadDecreaseOptions& options,
                               const TriggeringModel* model,
                               const VertexMask* blocked) {
  SpreadDecreaseEngine engine(g, root, options, model, blocked);
  const bool built = engine.Build();
  VBLOCK_CHECK_MSG(built, "deadline-free build cannot expire");
  return engine.Scores();
}

}  // namespace

SpreadDecreaseResult ComputeSpreadDecrease(const Graph& g, VertexId root,
                                           const SpreadDecreaseOptions& options,
                                           const VertexMask* blocked) {
  return ScoreOnce(g, root, options, nullptr, blocked);
}

SpreadDecreaseResult ComputeSpreadDecreaseTriggering(
    const Graph& g, const TriggeringModel& model, VertexId root,
    const SpreadDecreaseOptions& options, const VertexMask* blocked) {
  return ScoreOnce(g, root, options, &model, blocked);
}

// Exact Algorithm 2: every world weighted by its probability instead of
// θ samples weighted 1/θ.
Result<SpreadDecreaseResult> ComputeSpreadDecreaseExact(
    const Graph& g, VertexId root, const VertexMask* blocked,
    int max_uncertain_edges) {
  WorldEnumerator enumerator(g, root, blocked);
  SpreadDecreaseResult result;
  result.delta.assign(g.NumVertices(), 0.0);
  double spread = 0;
  SampleScorer scorer;
  std::vector<VertexId> sizes;
  Status status = enumerator.ForEachWorld(
      [&](double world_weight, const SampledGraph& sample) {
        scorer.Score(sample, &sizes);
        spread += world_weight * static_cast<double>(sizes[0]);
        for (VertexId local = 1; local < sample.NumVertices(); ++local) {
          result.delta[sample.to_parent[local]] +=
              world_weight * static_cast<double>(sizes[local]);
        }
      },
      max_uncertain_edges);
  if (!status.ok()) return status;
  result.expected_spread = spread;
  return result;
}

}  // namespace vblock
