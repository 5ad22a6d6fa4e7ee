#include "core/betweenness.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace vblock {

namespace {

// Brandes scratch. Visitation is epoch-stamped so a source
// iteration costs O(visited + edges examined), not O(n) clearing, and the
// shortest-path predecessors live in one flat CSR buffer (offsets over the
// BFS order + a pool sized Σ preds) rebuilt per source — no vector-of-
// vectors churn.
struct BrandesScratch {
  std::vector<uint32_t> visit_epoch;   // distance/sigma/... valid iff == epoch
  std::vector<int64_t> distance;
  std::vector<double> sigma;           // shortest-path counts
  std::vector<double> dependency;      // δ accumulation
  std::vector<uint32_t> pred_count;    // preds discovered in the BFS pass
  std::vector<uint32_t> pred_cursor;   // fill cursor into pred_pool
  std::vector<VertexId> order;         // BFS order
  std::vector<uint32_t> pred_offsets;  // per BFS position; size |order|+1
  std::vector<VertexId> pred_pool;     // flat predecessor storage
  uint32_t epoch = 0;

  explicit BrandesScratch(VertexId n)
      : visit_epoch(n, 0),
        distance(n),
        sigma(n),
        dependency(n),
        pred_count(n),
        pred_cursor(n) {
    order.reserve(n);
  }
};

void AccumulateFromSource(const Graph& g, VertexId s, double weight,
                          BrandesScratch& scratch,
                          std::vector<double>* centrality) {
  const uint32_t epoch = ++scratch.epoch;
  auto discover = [&](VertexId v, int64_t dist) {
    scratch.visit_epoch[v] = epoch;
    scratch.distance[v] = dist;
    scratch.sigma[v] = 0.0;
    scratch.dependency[v] = 0.0;
    scratch.pred_count[v] = 0;
    scratch.order.push_back(v);
  };

  // Pass 1: BFS shortest-path DAG — distances, σ counts, predecessor
  // counts (the flat buffer's shape).
  scratch.order.clear();
  discover(s, 0);
  scratch.sigma[s] = 1.0;
  for (size_t head = 0; head < scratch.order.size(); ++head) {
    VertexId u = scratch.order[head];
    for (VertexId v : g.OutNeighbors(u)) {
      if (scratch.visit_epoch[v] != epoch) discover(v, scratch.distance[u] + 1);
      if (scratch.distance[v] == scratch.distance[u] + 1) {
        scratch.sigma[v] += scratch.sigma[u];
        ++scratch.pred_count[v];
      }
    }
  }

  // Prefix-sum the counts into flat CSR offsets (indexed by BFS position)
  // and per-vertex fill cursors. The offsets are 32-bit; make the limit
  // explicit rather than silently wrapping on >= 2^32 DAG links.
  scratch.pred_offsets.resize(scratch.order.size() + 1);
  scratch.pred_offsets[0] = 0;
  uint64_t total_preds = 0;
  for (size_t i = 0; i < scratch.order.size(); ++i) {
    const VertexId v = scratch.order[i];
    scratch.pred_cursor[v] = scratch.pred_offsets[i];
    scratch.pred_offsets[i + 1] =
        scratch.pred_offsets[i] + scratch.pred_count[v];
    total_preds += scratch.pred_count[v];
  }
  VBLOCK_CHECK_MSG(total_preds <= UINT32_MAX,
                   "per-source predecessor links exceed 2^32");
  if (scratch.pred_pool.size() < scratch.pred_offsets.back()) {
    scratch.pred_pool.resize(scratch.pred_offsets.back());
  }

  // Pass 2: fill. Every out-neighbor of a visited vertex was stamped in
  // pass 1, so the distance test alone identifies DAG edges; scanning u in
  // BFS order appends each w's predecessors in exactly the order the
  // classic per-vertex push_back produced.
  for (VertexId u : scratch.order) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (scratch.distance[v] == scratch.distance[u] + 1) {
        scratch.pred_pool[scratch.pred_cursor[v]++] = u;
      }
    }
  }

  // Pass 3: dependency accumulation in reverse BFS order. The per-pred
  // expression keeps the historical operation order, so results are
  // bit-identical to the pre-flat-buffer implementation.
  for (size_t i = scratch.order.size(); i-- > 0;) {
    const VertexId w = scratch.order[i];
    for (uint32_t k = scratch.pred_offsets[i]; k < scratch.pred_offsets[i + 1];
         ++k) {
      const VertexId u = scratch.pred_pool[k];
      scratch.dependency[u] += scratch.sigma[u] / scratch.sigma[w] *
                               (1.0 + scratch.dependency[w]);
    }
    if (w != s) (*centrality)[w] += weight * scratch.dependency[w];
  }
}

}  // namespace

std::vector<double> ComputeBetweenness(const Graph& g,
                                       const BetweennessOptions& options) {
  const VertexId n = g.NumVertices();
  std::vector<double> centrality(n, 0.0);
  if (n == 0) return centrality;

  // Resolve the source list (and per-source weight) up front. Pivot
  // sampling consumes the RNG exactly as the historical interleaved loop
  // did.
  std::vector<VertexId> sources;
  double weight = 1.0;
  if (options.pivots == 0 || options.pivots >= n) {
    sources.resize(n);
    for (VertexId v = 0; v < n; ++v) sources[v] = v;
  } else {
    // Uniform pivot sample without replacement, scaled by n/pivots.
    std::vector<VertexId> pool(n);
    for (VertexId v = 0; v < n; ++v) pool[v] = v;
    Rng rng(options.seed);
    weight = static_cast<double>(n) / static_cast<double>(options.pivots);
    for (uint32_t i = 0; i < options.pivots; ++i) {
      size_t j = i + rng.NextBounded(pool.size() - i);
      std::swap(pool[i], pool[j]);
    }
    pool.resize(options.pivots);
    sources = std::move(pool);
  }

  BrandesScratch scratch(n);
  for (VertexId s : sources) {
    AccumulateFromSource(g, s, weight, scratch, &centrality);
  }
  return centrality;
}

std::vector<VertexId> BetweennessBlockers(const Graph& g,
                                          const std::vector<VertexId>& seeds,
                                          uint32_t budget,
                                          const BetweennessOptions& options) {
  std::vector<double> score = ComputeBetweenness(g, options);
  std::vector<uint8_t> is_seed(g.NumVertices(), 0);
  for (VertexId s : seeds) {
    VBLOCK_CHECK_MSG(s < g.NumVertices(), "seed id out of range");
    is_seed[s] = 1;
  }
  std::vector<VertexId> pool;
  pool.reserve(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!is_seed[v]) pool.push_back(v);
  }
  const size_t k = std::min<size_t>(budget, pool.size());
  std::partial_sort(pool.begin(), pool.begin() + static_cast<ptrdiff_t>(k),
                    pool.end(), [&](VertexId a, VertexId b) {
                      return score[a] != score[b] ? score[a] > score[b]
                                                  : a < b;
                    });
  pool.resize(k);
  return pool;
}

}  // namespace vblock
