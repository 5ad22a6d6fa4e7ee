// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Seed-rooted live-edge sampler under a general triggering model
// (paper §V-E): edge (u,v) is live iff u is in v's sampled triggering set.
// Trigger sets are drawn lazily the first time a vertex is examined, so a
// sample costs O(size of the reached region), like the IC sampler.

#pragma once

#include "cascade/triggering.h"
#include "common/rng.h"
#include "common/sampler_kind.h"
#include "graph/graph.h"
#include "graph/prob_grouped_view.h"
#include "graph/vertex_mask.h"
#include "sampling/sampled_graph.h"

namespace vblock {

/// Reusable triggering-model live-edge sampler rooted at a fixed vertex.
class TriggeringSampler {
 public:
  /// Under kGeometricSkip (default) trigger sets are drawn through the
  /// model's SampleTriggerSetGrouped fast path over the graph's
  /// probability-grouped in-adjacency; kPerEdgeCoin uses the plain
  /// SampleTriggerSet. Same distribution, different RNG consumption.
  TriggeringSampler(const Graph& g, const TriggeringModel& model,
                    VertexId root, const VertexMask* blocked = nullptr,
                    SamplerKind kind = SamplerKind::kGeometricSkip);

  void set_blocked(const VertexMask* blocked) { blocked_ = blocked; }

  /// Draws one sample into `out` (previous contents discarded).
  void Sample(Rng& rng, SampledGraph* out);

  /// Heap bytes of the visitation and trigger-set arrays.
  uint64_t MemoryUsageBytes() const {
    return VectorBytes(local_id_) + VectorBytes(visit_epoch_) +
           VectorBytes(trigger_epoch_) + VectorBytes(trigger_begin_) +
           VectorBytes(trigger_end_) + VectorBytes(trigger_pool_) +
           VectorBytes(scratch_);
  }

 private:
  /// True iff `u` is in this round's T(v); samples T(v) on first use.
  bool EdgeLive(VertexId u, VertexId v, Rng& rng);

  const Graph& graph_;
  const TriggeringModel& model_;
  VertexId root_;
  const VertexMask* blocked_;
  // Set iff kGeometricSkip AND the model has a grouped fast path.
  const ProbGroupedView* grouped_ = nullptr;

  std::vector<uint32_t> local_id_;
  std::vector<uint32_t> visit_epoch_;
  // Lazily sampled trigger sets: trigger_epoch_ stamps validity;
  // trigger_begin_/trigger_sets_ store the in-neighbor indices chosen for
  // each sampled vertex this round.
  std::vector<uint32_t> trigger_epoch_;
  std::vector<uint32_t> trigger_begin_;
  std::vector<uint32_t> trigger_end_;
  std::vector<uint32_t> trigger_pool_;
  std::vector<uint32_t> scratch_;
  uint32_t epoch_ = 0;
};

}  // namespace vblock
