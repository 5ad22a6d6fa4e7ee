#include "cascade/exact_spread.h"

#include <functional>
#include <string>

#include "sampling/world_enumerator.h"

namespace vblock {

namespace {

// Both exact values are one fold over the seed set's worlds: `fold(weight,
// sample)` sees each world's seed-reachable live region.
Status FoldWorlds(
    const Graph& g, const std::vector<VertexId>& seeds,
    const VertexMask* blocked, const ExactSpreadOptions& options,
    const std::function<void(double, const SampledGraph&)>& fold) {
  for (VertexId s : seeds) {
    if (s >= g.NumVertices()) {
      return Status::OutOfRange("seed " + std::to_string(s) +
                                " is not a vertex of a graph with " +
                                std::to_string(g.NumVertices()) + " vertices");
    }
  }
  return WorldEnumerator(g, seeds, blocked)
      .ForEachWorld(fold, options.max_uncertain_edges);
}

}  // namespace

Result<double> ComputeExactSpread(const Graph& g,
                                  const std::vector<VertexId>& seeds,
                                  const VertexMask* blocked,
                                  const ExactSpreadOptions& options) {
  double spread = 0.0;
  VBLOCK_RETURN_IF_ERROR(FoldWorlds(
      g, seeds, blocked, options,
      [&](double weight, const SampledGraph& sample) {
        spread += weight * static_cast<double>(sample.NumVertices());
      }));
  return spread;
}

Result<std::vector<double>> ComputeExactActivationProbabilities(
    const Graph& g, const std::vector<VertexId>& seeds,
    const VertexMask* blocked, const ExactSpreadOptions& options) {
  std::vector<double> probs(g.NumVertices(), 0.0);
  VBLOCK_RETURN_IF_ERROR(FoldWorlds(
      g, seeds, blocked, options,
      [&](double weight, const SampledGraph& sample) {
        for (VertexId v : sample.to_parent) probs[v] += weight;
      }));
  return probs;
}

}  // namespace vblock
