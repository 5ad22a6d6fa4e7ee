#include "sampling/reachable_sampler.h"

#include "common/check.h"

namespace vblock {

ReachableSampler::ReachableSampler(const Graph& g, VertexId root,
                                   const VertexMask* blocked, SamplerKind kind)
    : graph_(g),
      root_(root),
      blocked_(blocked),
      kind_(kind),
      local_id_(g.NumVertices(), 0),
      visit_epoch_(g.NumVertices(), 0) {
  VBLOCK_CHECK_MSG(root < g.NumVertices(), "root out of range");
  if (kind_ != SamplerKind::kPerEdgeCoin) grouped_ = &g.GroupedView();
}

VertexId ReachableSampler::Visit(VertexId v, SampledGraph* out) {
  visit_epoch_[v] = epoch_;
  const auto local = static_cast<VertexId>(out->to_parent.size());
  local_id_[v] = local;
  out->to_parent.push_back(v);
  return local;
}

void ReachableSampler::Sample(Rng& rng, SampledGraph* out) {
  VBLOCK_DCHECK(!(blocked_ && blocked_->Test(root_)));
  ++epoch_;
  out->Clear();
  Visit(root_, out);
  DrawRows(rng, out);
}

void ReachableSampler::Extend(const SampledGraph& region, VertexId v,
                              std::span<const uint32_t> live_sources,
                              Rng& rng, SampledGraph* out) {
  VBLOCK_DCHECK(!live_sources.empty() && !(blocked_ && blocked_->Test(v)));
  ++epoch_;
  out->Clear();
  for (VertexId u : region.to_parent) Visit(u, out);
  VBLOCK_DCHECK(visit_epoch_[v] != epoch_);
  const VertexId local_v = Visit(v, out);
  size_t next = 0;
  for (VertexId local_u = 0; local_u < region.NumVertices(); ++local_u) {
    out->targets.insert(out->targets.end(),
                        region.targets.begin() + region.offsets[local_u],
                        region.targets.begin() + region.offsets[local_u + 1]);
    if (next < live_sources.size() && live_sources[next] == local_u) {
      out->targets.push_back(local_v);
      ++next;
    }
    out->offsets.push_back(static_cast<uint32_t>(out->targets.size()));
  }
  VBLOCK_DCHECK(next == live_sources.size());
  DrawRows(rng, out);
}

void ReachableSampler::DrawRows(Rng& rng, SampledGraph* out) {
  // A live edge to a vertex v already known to be unblocked.
  auto take = [&](VertexId v) {
    VertexId local_v =
        visit_epoch_[v] == epoch_ ? local_id_[v] : Visit(v, out);
    out->targets.push_back(local_v);
  };

  // BFS pops vertices in local-id order and appends each vertex's live
  // out-edges consecutively, so `targets` is already grouped by source and
  // the CSR offsets can be emitted on the fly. Blocked vertices are absent
  // (Definition 2); the per-edge kind tests the mask before the coin so
  // blocked targets consume no randomness (historical RNG consumption).
  for (VertexId local_u = static_cast<VertexId>(out->offsets.size() - 1);
       local_u < out->to_parent.size(); ++local_u) {
    VertexId u = out->to_parent[local_u];
    if (kind_ != SamplerKind::kPerEdgeCoin) {
      auto on_live = [&](VertexId v, uint32_t) {
        if (blocked_ && blocked_->Test(v)) return;
        take(v);
      };
      grouped_->SampleOutEdges(u, rng, on_live);
    } else {
      auto targets = graph_.OutNeighbors(u);
      auto probs = graph_.OutProbabilities(u);
      for (size_t k = 0; k < targets.size(); ++k) {
        VertexId v = targets[k];
        if (blocked_ && blocked_->Test(v)) continue;
        if (!rng.NextBernoulli(probs[k])) continue;
        take(v);
      }
    }
    out->offsets.push_back(static_cast<uint32_t>(out->targets.size()));
  }
}

}  // namespace vblock
