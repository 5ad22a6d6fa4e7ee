#include "cascade/triggering.h"

#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "graph/prob_grouped_view.h"
#include "graph/vertex_mask.h"

namespace vblock {

void TriggeringModel::SampleTriggerSetGrouped(
    const Graph& g, const ProbGroupedView& grouped, VertexId v, Rng& rng,
    std::vector<uint32_t>* out) const {
  (void)grouped;
  SampleTriggerSet(g, v, rng, out);
}

void IcTriggeringModel::SampleTriggerSet(const Graph& g, VertexId v, Rng& rng,
                                         std::vector<uint32_t>* out) const {
  auto probs = g.InProbabilities(v);
  for (uint32_t i = 0; i < probs.size(); ++i) {
    if (rng.NextBernoulli(probs[i])) out->push_back(i);
  }
}

void IcTriggeringModel::SampleTriggerSetGrouped(
    const Graph& g, const ProbGroupedView& grouped, VertexId v, Rng& rng,
    std::vector<uint32_t>* out) const {
  (void)g;
  grouped.SampleInEdges(v, rng, [out](VertexId, uint32_t original_pos) {
    out->push_back(original_pos);
  });
}

LtTriggeringModel::LtTriggeringModel(const Graph& g) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    double sum = 0;
    for (double w : g.InProbabilities(v)) sum += w;
    VBLOCK_CHECK_MSG(sum <= 1.0 + 1e-9,
                     "LT weights must sum to <= 1 per vertex; normalize "
                     "(e.g. use the weighted-cascade model)");
  }
}

void LtTriggeringModel::SampleTriggerSet(const Graph& g, VertexId v, Rng& rng,
                                         std::vector<uint32_t>* out) const {
  auto probs = g.InProbabilities(v);
  double r = rng.NextDouble();
  double cumulative = 0;
  for (uint32_t i = 0; i < probs.size(); ++i) {
    cumulative += probs[i];
    if (r < cumulative) {
      out->push_back(i);
      return;
    }
  }
  // r >= Σ weights: empty triggering set.
}

namespace {

// Tracks lazily sampled trigger sets. For each examined vertex v we record
// which in-neighbor indices are in T(v); the membership test for edge (u,v)
// scans T(v) (trigger sets are tiny: expected O(1) for LT / sparse IC).
class LazyTriggerSets {
 public:
  LazyTriggerSets(const Graph& g, const TriggeringModel& model, Rng& rng)
      : graph_(g), model_(model), rng_(rng), sampled_(g.NumVertices(), 0) {}

  /// True iff in-neighbor index `in_idx` of v is in T(v).
  bool EdgeLive(VertexId v, uint32_t in_idx) {
    if (!sampled_[v]) {
      sampled_[v] = 1;
      scratch_.clear();
      model_.SampleTriggerSet(graph_, v, rng_, &scratch_);
      sets_[v] = scratch_;
    }
    for (uint32_t i : sets_[v]) {
      if (i == in_idx) return true;
    }
    return false;
  }

 private:
  const Graph& graph_;
  const TriggeringModel& model_;
  Rng& rng_;
  std::vector<uint8_t> sampled_;
  std::vector<uint32_t> scratch_;
  // Sparse storage: only examined vertices get an entry.
  std::unordered_map<VertexId, std::vector<uint32_t>> sets_;
};

}  // namespace

VertexId RunTriggeringCascade(const Graph& g, const TriggeringModel& model,
                              const std::vector<VertexId>& seeds, Rng& rng,
                              const VertexMask* blocked) {
  LazyTriggerSets triggers(g, model, rng);
  std::vector<uint8_t> active(g.NumVertices(), 0);
  std::vector<VertexId> order;
  for (VertexId s : seeds) {
    if (blocked && blocked->Test(s)) continue;
    if (active[s]) continue;
    active[s] = 1;
    order.push_back(s);
  }
  size_t head = 0;
  while (head < order.size()) {
    VertexId u = order[head++];
    auto targets = g.OutNeighbors(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      VertexId v = targets[k];
      if (active[v]) continue;
      if (blocked && blocked->Test(v)) continue;
      // Find u's index among v's in-neighbors. In-neighbor lists are sorted
      // by source (CSR construction order), so binary search applies.
      auto in = g.InNeighbors(v);
      uint32_t lo = 0, hi = static_cast<uint32_t>(in.size());
      while (lo < hi) {
        uint32_t mid = (lo + hi) / 2;
        if (in[mid] < u) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      VBLOCK_DCHECK(lo < in.size() && in[lo] == u);
      if (triggers.EdgeLive(v, lo)) {
        active[v] = 1;
        order.push_back(v);
      }
    }
  }
  return static_cast<VertexId>(order.size());
}

double EstimateTriggeringSpread(const Graph& g, const TriggeringModel& model,
                                const std::vector<VertexId>& seeds,
                                uint32_t rounds, uint64_t seed,
                                const VertexMask* blocked) {
  VBLOCK_CHECK_MSG(rounds > 0, "rounds must be positive");
  uint64_t total = 0;
  for (uint32_t i = 0; i < rounds; ++i) {
    Rng rng(MixSeed(seed, i));
    total += RunTriggeringCascade(g, model, seeds, rng, blocked);
  }
  return static_cast<double>(total) / rounds;
}

}  // namespace vblock
