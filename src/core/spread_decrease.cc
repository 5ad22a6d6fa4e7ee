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
                               const VertexMask* blocked,
                               const std::vector<double>* vertex_weight) {
  SpreadDecreaseEngine engine(g, root, options, model, blocked,
                              vertex_weight);
  const bool built = engine.Build();
  VBLOCK_CHECK_MSG(built, "deadline-free build cannot expire");
  return engine.Scores();
}

// Exact Algorithm 2: every world weighted by its probability instead of
// θ samples weighted 1/θ. `weight` holds 0/1 bytes (empty = all ones).
Result<SpreadDecreaseResult> EnumerateExact(const Graph& g, VertexId root,
                                            std::span<const uint8_t> weight,
                                            const VertexMask* blocked,
                                            int max_uncertain_edges) {
  WorldEnumerator enumerator(g, root, blocked);
  SpreadDecreaseResult result;
  result.delta.assign(g.NumVertices(), 0.0);
  double spread = 0;
  SampleScorer scorer;
  std::vector<VertexId> sizes;
  Status status = enumerator.ForEachWorld(
      [&](double world_weight, const SampledGraph& sample) {
        scorer.Score(sample, weight, &sizes);
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

}  // namespace

std::vector<uint8_t> CheckZeroOneWeights(const Graph& g,
                                         const std::vector<double>& weight) {
  VBLOCK_CHECK_MSG(weight.size() == g.NumVertices(),
                   "weight vector size must match vertex count");
  std::vector<uint8_t> bytes(weight.size());
  for (size_t v = 0; v < weight.size(); ++v) {
    VBLOCK_CHECK_MSG(weight[v] == 0.0 || weight[v] == 1.0,
                     "vertex weights must be 0 or 1");
    bytes[v] = weight[v] == 1.0;
  }
  return bytes;
}

SpreadDecreaseResult ComputeSpreadDecrease(const Graph& g, VertexId root,
                                           const SpreadDecreaseOptions& options,
                                           const VertexMask* blocked) {
  return ScoreOnce(g, root, options, nullptr, blocked, nullptr);
}

SpreadDecreaseResult ComputeSpreadDecreaseTriggering(
    const Graph& g, const TriggeringModel& model, VertexId root,
    const SpreadDecreaseOptions& options, const VertexMask* blocked) {
  return ScoreOnce(g, root, options, &model, blocked, nullptr);
}

SpreadDecreaseResult ComputeSpreadDecreaseWeighted(
    const Graph& g, VertexId root, const std::vector<double>& vertex_weight,
    const SpreadDecreaseOptions& options, const VertexMask* blocked) {
  return ScoreOnce(g, root, options, nullptr, blocked, &vertex_weight);
}

Result<SpreadDecreaseResult> ComputeSpreadDecreaseExact(
    const Graph& g, VertexId root, const VertexMask* blocked,
    int max_uncertain_edges) {
  return EnumerateExact(g, root, {}, blocked, max_uncertain_edges);
}

Result<SpreadDecreaseResult> ComputeSpreadDecreaseExactWeighted(
    const Graph& g, VertexId root, const std::vector<double>& vertex_weight,
    const VertexMask* blocked, int max_uncertain_edges) {
  return EnumerateExact(g, root, CheckZeroOneWeights(g, vertex_weight),
                        blocked, max_uncertain_edges);
}

}  // namespace vblock
