#include "cascade/ic_model.h"

namespace vblock {

IcSimulator::IcSimulator(const Graph& g, SamplerKind kind)
    : graph_(g), kind_(kind), visited_epoch_(g.NumVertices(), 0) {
  if (kind_ != SamplerKind::kPerEdgeCoin) grouped_ = &g.GroupedView();
}

VertexId IcSimulator::Run(const std::vector<VertexId>& seeds, Rng& rng,
                          const VertexMask* blocked) {
  ++epoch_;
  frontier_.clear();
  for (VertexId s : seeds) {
    if (blocked && blocked->Test(s)) continue;
    if (visited_epoch_[s] == epoch_) continue;
    visited_epoch_[s] = epoch_;
    frontier_.push_back(s);
  }
  // BFS order is equivalent to timestamp order for counting purposes: each
  // edge gets exactly one independent coin regardless of schedule.
  size_t head = 0;
  while (head < frontier_.size()) {
    VertexId u = frontier_[head++];
    if (kind_ != SamplerKind::kPerEdgeCoin) {
      auto on_live = [&](VertexId v, uint32_t) {
        if (visited_epoch_[v] == epoch_) return;
        if (blocked && blocked->Test(v)) return;
        visited_epoch_[v] = epoch_;
        frontier_.push_back(v);
      };
      grouped_->SampleOutEdges(u, rng, on_live);
    } else {
      auto targets = graph_.OutNeighbors(u);
      auto probs = graph_.OutProbabilities(u);
      for (size_t k = 0; k < targets.size(); ++k) {
        VertexId v = targets[k];
        if (visited_epoch_[v] == epoch_) continue;
        if (blocked && blocked->Test(v)) continue;
        if (!rng.NextBernoulli(probs[k])) continue;
        visited_epoch_[v] = epoch_;
        frontier_.push_back(v);
      }
    }
  }
  return static_cast<VertexId>(frontier_.size());
}

}  // namespace vblock
