#include "sampling/world_enumerator.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace vblock {

WorldEnumerator::WorldEnumerator(const Graph& g,
                                 const std::vector<VertexId>& seeds,
                                 const VertexMask* blocked) {
  std::vector<VertexId> local_of(g.NumVertices(), kInvalidVertex);
  auto add = [&](VertexId v) {
    if (local_of[v] != kInvalidVertex) return;
    if (blocked && blocked->Test(v)) return;
    local_of[v] = static_cast<VertexId>(members_.size());
    members_.push_back(v);
  };
  for (VertexId s : seeds) {
    VBLOCK_CHECK_MSG(s < g.NumVertices(), "seed out of range");
    add(s);
  }
  num_seeds_ = static_cast<VertexId>(members_.size());
  for (size_t head = 0; head < members_.size(); ++head) {
    VertexId u = members_[head];
    auto targets = g.OutNeighbors(u);
    auto probs = g.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      if (probs[k] > 0.0) add(targets[k]);
    }
  }

  // Locals are visited in order, so the certain edges land in CSR order.
  const auto local_n = static_cast<VertexId>(members_.size());
  certain_offsets_.assign(1, 0);
  for (VertexId local_u = 0; local_u < local_n; ++local_u) {
    VertexId u = members_[local_u];
    auto targets = g.OutNeighbors(u);
    auto probs = g.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      VertexId local_v = local_of[targets[k]];
      if (local_v == kInvalidVertex) continue;
      if (probs[k] >= 1.0) {
        certain_targets_.push_back(local_v);
      } else if (probs[k] > 0.0) {
        uncertain_.push_back({local_u, local_v, probs[k]});
      }
    }
    certain_offsets_.push_back(
        static_cast<uint32_t>(certain_targets_.size()));
  }
}

WorldEnumerator::WorldEnumerator(const Graph& g, VertexId root,
                                 const VertexMask* blocked)
    : WorldEnumerator(g, std::vector<VertexId>(1, root), blocked) {
  VBLOCK_CHECK_MSG(num_seeds_ == 1, "root must not be blocked");
}

Status WorldEnumerator::ForEachWorld(
    const std::function<void(double, const SampledGraph&)>& fn,
    int max_uncertain_edges) const {
  const int k = NumUncertainEdges();
  // 2^63 is the most worlds the 64-bit world counter can step through.
  const int limit = std::min(max_uncertain_edges, 63);
  if (k > limit) {
    return Status::ResourceExhausted(
        "world enumeration needs 2^" + std::to_string(k) + " worlds (limit 2^" +
        std::to_string(limit) + ")");
  }
  const auto local_n = static_cast<VertexId>(members_.size());

  SampledGraph sample;
  std::vector<VertexId> sample_id(local_n);
  std::vector<uint8_t> reached(local_n);
  std::vector<std::vector<VertexId>> live_uncertain(local_n);
  std::vector<VertexId> queue_local;  // universe-local ids in sample order

  for (uint64_t world = 0; world < (uint64_t{1} << k); ++world) {
    double weight = 1.0;
    for (auto& lane : live_uncertain) lane.clear();
    for (int e = 0; e < k; ++e) {
      const auto& edge = uncertain_[e];
      if ((world >> e) & 1) {
        weight *= edge.probability;
        live_uncertain[edge.source].push_back(edge.target);
      } else {
        weight *= 1.0 - edge.probability;
      }
    }
    if (weight == 0.0) continue;

    // Seed-reachable live region of this world, in SampledGraph layout.
    // queue_local[i] is the universe-local id of sample vertex i.
    sample.Clear();
    std::fill(reached.begin(), reached.end(), 0);
    queue_local.clear();
    auto visit = [&](VertexId local_v) {
      reached[local_v] = 1;
      sample_id[local_v] = static_cast<VertexId>(sample.to_parent.size());
      sample.to_parent.push_back(members_[local_v]);
      queue_local.push_back(local_v);
    };
    for (VertexId s = 0; s < num_seeds_; ++s) visit(s);
    for (size_t head = 0; head < queue_local.size(); ++head) {
      VertexId local_u = queue_local[head];
      for (uint32_t i = certain_offsets_[local_u];
           i < certain_offsets_[local_u + 1]; ++i) {
        VertexId t = certain_targets_[i];
        if (!reached[t]) visit(t);
        sample.targets.push_back(sample_id[t]);
      }
      for (VertexId t : live_uncertain[local_u]) {
        if (!reached[t]) visit(t);
        sample.targets.push_back(sample_id[t]);
      }
      sample.offsets.push_back(static_cast<uint32_t>(sample.targets.size()));
    }
    fn(weight, sample);
  }
  return Status::OK();
}

}  // namespace vblock
