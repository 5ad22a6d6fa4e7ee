#include "sampling/triggering_sampler.h"

#include "common/check.h"

namespace vblock {

TriggeringSampler::TriggeringSampler(const Graph& g,
                                     const TriggeringModel& model,
                                     VertexId root, const VertexMask* blocked,
                                     SamplerKind kind)
    : graph_(g),
      model_(model),
      root_(root),
      blocked_(blocked),
      local_id_(g.NumVertices(), 0),
      visit_epoch_(g.NumVertices(), 0),
      trigger_epoch_(g.NumVertices(), 0),
      trigger_begin_(g.NumVertices(), 0),
      trigger_end_(g.NumVertices(), 0) {
  VBLOCK_CHECK_MSG(root < g.NumVertices(), "root out of range");
  // Only pay for (and hold) the grouped view when the model can use it —
  // LT's single roulette spin gains nothing from grouping.
  if (kind != SamplerKind::kPerEdgeCoin && model.HasGroupedFastPath()) {
    grouped_ = &g.GroupedView();
  }
}

bool TriggeringSampler::EdgeLive(VertexId u, VertexId v, Rng& rng) {
  if (trigger_epoch_[v] != epoch_) {
    trigger_epoch_[v] = epoch_;
    scratch_.clear();
    if (grouped_ != nullptr) {
      model_.SampleTriggerSetGrouped(graph_, *grouped_, v, rng, &scratch_);
    } else {
      model_.SampleTriggerSet(graph_, v, rng, &scratch_);
    }
    trigger_begin_[v] = static_cast<uint32_t>(trigger_pool_.size());
    for (uint32_t idx : scratch_) trigger_pool_.push_back(idx);
    trigger_end_[v] = static_cast<uint32_t>(trigger_pool_.size());
  }
  // Membership test: does any chosen in-neighbor index of v name u?
  auto in = graph_.InNeighbors(v);
  for (uint32_t i = trigger_begin_[v]; i < trigger_end_[v]; ++i) {
    if (in[trigger_pool_[i]] == u) return true;
  }
  return false;
}

void TriggeringSampler::Sample(Rng& rng, SampledGraph* out) {
  VBLOCK_DCHECK(!(blocked_ && blocked_->Test(root_)));
  ++epoch_;
  trigger_pool_.clear();
  out->Clear();

  auto visit = [&](VertexId v) -> VertexId {
    visit_epoch_[v] = epoch_;
    auto local = static_cast<VertexId>(out->to_parent.size());
    local_id_[v] = local;
    out->to_parent.push_back(v);
    return local;
  };
  visit(root_);

  for (VertexId local_u = 0; local_u < out->to_parent.size(); ++local_u) {
    VertexId u = out->to_parent[local_u];
    for (VertexId v : graph_.OutNeighbors(u)) {
      if (blocked_ && blocked_->Test(v)) continue;
      if (!EdgeLive(u, v, rng)) continue;
      VertexId local_v = visit_epoch_[v] == epoch_ ? local_id_[v] : visit(v);
      out->targets.push_back(local_v);
    }
    out->offsets.push_back(static_cast<uint32_t>(out->targets.size()));
  }
}

}  // namespace vblock
