// Tests for the cache-conscious vertex relabeling pass (PR 7):
// RelabelVertices permutation/isomorphism properties for every VertexOrder,
// the UnifySeeds composition contract (external ids and the root-is-last
// layout are invariant under relabeling), decisive-instance round trips
// (solves on relabeled graphs return identical original-id blocker sets for
// AG/GR under both reuse modes), thread-count invariance of relabeled
// solves, and the work-sharing plumbing (QueryKey participation,
// normalization for the non-unifying heuristics, batch ≡ standalone,
// PoolCache keying).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/batch_solver.h"
#include "core/query_key.h"
#include "core/solver.h"
#include "core/unified_instance.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "prob/probability_models.h"
#include "service/pool_cache.h"

namespace vblock {
namespace {

constexpr VertexOrder kAllOrders[] = {
    VertexOrder::kOriginal, VertexOrder::kDegreeDesc,
    VertexOrder::kBfsFromRoot};

// The graph's edge multiset expressed in a label-independent form:
// (map[source], map[target], probability) triples, sorted. Two graphs are
// isomorphic under their maps iff these collections are equal.
std::vector<std::tuple<VertexId, VertexId, double>> MappedEdges(
    const Graph& g, const std::vector<VertexId>& to_canonical) {
  std::vector<std::tuple<VertexId, VertexId, double>> edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    auto targets = g.OutNeighbors(u);
    auto probs = g.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      edges.emplace_back(to_canonical[u], to_canonical[targets[k]], probs[k]);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<VertexId> Identity(VertexId n) {
  std::vector<VertexId> id(n);
  for (VertexId v = 0; v < n; ++v) id[v] = v;
  return id;
}

// ---------------------------------------------------------- RelabelVertices

TEST(RelabelVerticesTest, PermutationIsABijectionWithInverse) {
  Graph g = WithWeightedCascade(GenerateErdosRenyi(120, 700, 11));
  for (VertexOrder order : kAllOrders) {
    VertexRelabeling rel = RelabelVertices(g, order, /*bfs_root=*/0);
    ASSERT_EQ(rel.new_to_old.size(), g.NumVertices());
    ASSERT_EQ(rel.old_to_new.size(), g.NumVertices());
    std::vector<uint8_t> seen(g.NumVertices(), 0);
    for (VertexId new_id = 0; new_id < g.NumVertices(); ++new_id) {
      const VertexId old_id = rel.new_to_old[new_id];
      ASSERT_LT(old_id, g.NumVertices());
      EXPECT_FALSE(seen[old_id]) << "duplicate old id " << old_id;
      seen[old_id] = 1;
      EXPECT_EQ(rel.old_to_new[old_id], new_id);
    }
  }
}

TEST(RelabelVerticesTest, RelabeledGraphIsIsomorphic) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(150, 3, 17));
  const auto original = MappedEdges(g, Identity(g.NumVertices()));
  for (VertexOrder order : kAllOrders) {
    VertexRelabeling rel = RelabelVertices(g, order, /*bfs_root=*/0);
    ASSERT_EQ(rel.graph.NumVertices(), g.NumVertices());
    ASSERT_EQ(rel.graph.NumEdges(), g.NumEdges());
    // Map the relabeled graph's edges back through new_to_old: must be the
    // original edge multiset, probabilities bit-for-bit.
    EXPECT_EQ(MappedEdges(rel.graph, rel.new_to_old), original)
        << "order=" << static_cast<int>(order);
  }
}

TEST(RelabelVerticesTest, OriginalOrderIsTheIdentity) {
  Graph g = WithWeightedCascade(GenerateErdosRenyi(60, 300, 7));
  VertexRelabeling rel = RelabelVertices(g, VertexOrder::kOriginal);
  EXPECT_EQ(rel.new_to_old, Identity(g.NumVertices()));
  EXPECT_EQ(rel.old_to_new, Identity(g.NumVertices()));
}

TEST(RelabelVerticesTest, DegreeDescSortsByTotalDegreeWithStableTies) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(200, 2, 23));
  VertexRelabeling rel = RelabelVertices(g, VertexOrder::kDegreeDesc);
  auto total_degree = [&g](VertexId v) {
    return g.OutDegree(v) + g.InDegree(v);
  };
  for (VertexId i = 1; i < g.NumVertices(); ++i) {
    const VertexId prev = rel.new_to_old[i - 1];
    const VertexId cur = rel.new_to_old[i];
    EXPECT_GE(total_degree(prev), total_degree(cur)) << "position " << i;
    if (total_degree(prev) == total_degree(cur)) {
      EXPECT_LT(prev, cur) << "ties must keep old-id order";
    }
  }
}

TEST(RelabelVerticesTest, BfsOrderVisitsByLayerThenUnreachedInOldOrder) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(150, 2, 29));
  const VertexId root = 3;
  VertexRelabeling rel = RelabelVertices(g, VertexOrder::kBfsFromRoot, root);

  // Reference distances over out-edges.
  constexpr VertexId kUnreached = kInvalidVertex;
  std::vector<VertexId> dist(g.NumVertices(), kUnreached);
  std::vector<VertexId> queue{root};
  dist[root] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    for (VertexId v : g.OutNeighbors(queue[head])) {
      if (dist[v] != kUnreached) continue;
      dist[v] = dist[queue[head]] + 1;
      queue.push_back(v);
    }
  }

  EXPECT_EQ(rel.new_to_old[0], root);
  size_t first_unreached = g.NumVertices();
  for (size_t i = 0; i < rel.new_to_old.size(); ++i) {
    if (dist[rel.new_to_old[i]] == kUnreached) {
      first_unreached = i;
      break;
    }
    if (i > 0 && dist[rel.new_to_old[i - 1]] != kUnreached) {
      EXPECT_LE(dist[rel.new_to_old[i - 1]], dist[rel.new_to_old[i]])
          << "BFS depths must be non-decreasing";
    }
  }
  for (size_t i = first_unreached; i < rel.new_to_old.size(); ++i) {
    EXPECT_EQ(dist[rel.new_to_old[i]], kUnreached)
        << "reached vertices must precede unreached ones";
    if (i > first_unreached) {
      EXPECT_LT(rel.new_to_old[i - 1], rel.new_to_old[i])
          << "unreached tail keeps old-id order";
    }
  }
}

TEST(RelabelVerticesTest, PinnedVertexMovesToTheEndOnly) {
  Graph g = WithWeightedCascade(GenerateErdosRenyi(80, 400, 31));
  const VertexId pinned = 5;
  for (VertexOrder order : kAllOrders) {
    VertexRelabeling plain = RelabelVertices(g, order, /*bfs_root=*/0);
    VertexRelabeling pinned_rel =
        RelabelVertices(g, order, /*bfs_root=*/0, pinned);
    EXPECT_EQ(pinned_rel.new_to_old.back(), pinned);
    // Erasing the pin from both must leave the same sequence: pinning only
    // moves one vertex, it never reorders the rest.
    std::vector<VertexId> a = plain.new_to_old;
    std::vector<VertexId> b = pinned_rel.new_to_old;
    a.erase(std::find(a.begin(), a.end(), pinned));
    b.pop_back();
    EXPECT_EQ(a, b) << "order=" << static_cast<int>(order);
  }
}

// ----------------------------------------------------- UnifySeeds composition

TEST(UnifySeedsRelabelTest, ExternalContractInvariantUnderAnyOrder) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(120, 3, 41));
  const std::vector<VertexId> seeds = {0, 3, 7};
  const UnifiedInstance reference = UnifySeeds(g, seeds);
  const auto reference_edges =
      MappedEdges(reference.graph, reference.to_original);

  for (VertexOrder order : kAllOrders) {
    const UnifiedInstance inst = UnifySeeds(g, seeds, order);
    // Layout invariant: the super-seed is the highest id regardless of the
    // internal order (docs promise it; kBfsFromRoot starts its BFS there).
    ASSERT_EQ(inst.graph.NumVertices(), reference.graph.NumVertices());
    EXPECT_EQ(inst.root, inst.graph.NumVertices() - 1);
    EXPECT_EQ(inst.num_seeds, reference.num_seeds);
    EXPECT_EQ(inst.to_original[inst.root], kInvalidVertex);

    // The mappings compose to the identity on surviving vertices and erase
    // the seeds.
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const bool is_seed =
          std::find(seeds.begin(), seeds.end(), v) != seeds.end();
      if (is_seed) {
        EXPECT_EQ(inst.to_unified[v], kInvalidVertex);
      } else {
        ASSERT_NE(inst.to_unified[v], kInvalidVertex);
        EXPECT_EQ(inst.to_original[inst.to_unified[v]], v);
      }
    }

    // Mapping every edge back to original ids (root included — it maps to
    // kInvalidVertex on both sides) must reproduce the kOriginal unified
    // graph exactly: relabeling permutes ids, nothing else.
    EXPECT_EQ(MappedEdges(inst.graph, inst.to_original), reference_edges)
        << "order=" << static_cast<int>(order);
  }
}

// ------------------------------------------------- decisive-instance round trip

// Deterministic IMIN instance: all edges carry p=1 (always live) or p=0
// (never live), so every sampled world is the same graph and solve results
// cannot depend on RNG consumption order — which relabeling changes. Gate
// vertices 2/3/4 guard chains of strictly different lengths, making every
// greedy pick a unique maximum (no id-order tie-breaks that a relabeling
// could flip).
//
//   seeds {0,1};  0 -> 2 -> 5 -> ... -> 13   (blocking 2 saves 10)
//                 1 -> 3 -> 14 -> ... -> 18  (blocking 3 saves 6)
//                 1 -> 4 -> 19 -> 20         (blocking 4 saves 3)
//                 0 -> 21 (p=0 decoy)
Graph DecisiveInstance() {
  GraphBuilder builder;
  builder.AddEdge(0, 2, 1.0);
  builder.AddEdge(1, 3, 1.0);
  builder.AddEdge(1, 4, 1.0);
  VertexId chain_a[] = {2, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  for (size_t i = 0; i + 1 < std::size(chain_a); ++i) {
    builder.AddEdge(chain_a[i], chain_a[i + 1], 1.0);
  }
  VertexId chain_b[] = {3, 14, 15, 16, 17, 18};
  for (size_t i = 0; i + 1 < std::size(chain_b); ++i) {
    builder.AddEdge(chain_b[i], chain_b[i + 1], 1.0);
  }
  builder.AddEdge(4, 19, 1.0);
  builder.AddEdge(19, 20, 1.0);
  builder.AddEdge(0, 21, 0.0);
  auto g = builder.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(*g);
}

TEST(RelabelRoundTripTest, SolversReturnIdenticalOriginalIdBlockers) {
  Graph g = DecisiveInstance();
  const std::vector<VertexId> seeds = {0, 1};
  for (Algorithm algorithm :
       {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
    for (SampleReuse reuse : {SampleReuse::kPrune, SampleReuse::kResample}) {
      for (VertexOrder order : kAllOrders) {
        SolverOptions opts;
        opts.algorithm = algorithm;
        opts.budget = 2;
        opts.theta = 200;
        opts.seed = 7;
        opts.sample_reuse = reuse;
        opts.vertex_order = order;
        auto result = SolveImin(g, seeds, opts);
        ASSERT_TRUE(result.ok());
        std::vector<VertexId> blockers = result->blockers;
        std::sort(blockers.begin(), blockers.end());
        EXPECT_EQ(blockers, (std::vector<VertexId>{2, 3}))
            << AlgorithmName(algorithm) << " order="
            << static_cast<int>(order) << " reuse="
            << static_cast<int>(reuse);
      }
    }
  }
}

TEST(RelabelRoundTripTest, StochasticSolvesAreReproducibleAndThreadInvariant) {
  // On a stochastic graph a non-default order visits different worlds (no
  // cross-order identity), but the within-order determinism contract must
  // hold untouched: one-thread reference reproduced bit-exactly at any
  // thread count, for both relabelings.
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 7));
  const std::vector<VertexId> seeds = {0, 2};
  for (VertexOrder order :
       {VertexOrder::kDegreeDesc, VertexOrder::kBfsFromRoot}) {
    SolverOptions opts;
    opts.algorithm = Algorithm::kAdvancedGreedy;
    opts.budget = 5;
    opts.theta = 700;
    opts.seed = 41;
    opts.sample_reuse = SampleReuse::kPrune;
    opts.vertex_order = order;
    opts.threads = 1;
    auto reference = SolveImin(g, seeds, opts);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(reference->blockers.size(), 5u);
    for (uint32_t threads : {2u, 8u}) {
      opts.threads = threads;
      auto parallel = SolveImin(g, seeds, opts);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->blockers, reference->blockers)
          << "order=" << static_cast<int>(order) << " threads=" << threads;
    }
  }
}

// --------------------------------------------------------- key plumbing

TEST(RelabelKeyTest, ResolveQueryKeyAppliesDefaultAndOverride) {
  SolverOptions defaults;
  defaults.vertex_order = VertexOrder::kDegreeDesc;

  IminQuery query;
  query.seeds = {4, 1};
  query.algorithm = Algorithm::kAdvancedGreedy;
  EXPECT_EQ(ResolveQueryKey(query, defaults).vertex_order,
            VertexOrder::kDegreeDesc);

  query.vertex_order = VertexOrder::kBfsFromRoot;
  EXPECT_EQ(ResolveQueryKey(query, defaults).vertex_order,
            VertexOrder::kBfsFromRoot);
}

TEST(RelabelKeyTest, HeuristicsNormalizeVertexOrderAway) {
  // RA/OD/PR/BC never unify, so two queries differing only in vertex_order
  // must share one key; the unifying family must not.
  SolverOptions resolved;
  resolved.vertex_order = VertexOrder::kBfsFromRoot;
  const std::vector<VertexId> seeds = {1, 2};
  for (Algorithm algorithm :
       {Algorithm::kRandom, Algorithm::kOutDegree, Algorithm::kPageRank,
        Algorithm::kBetweenness}) {
    EXPECT_EQ(CanonicalQueryKey(seeds, algorithm, resolved).vertex_order,
              VertexOrder::kOriginal)
        << AlgorithmName(algorithm);
  }
  for (Algorithm algorithm :
       {Algorithm::kBaselineGreedy, Algorithm::kAdvancedGreedy,
        Algorithm::kGreedyReplace}) {
    EXPECT_EQ(CanonicalQueryKey(seeds, algorithm, resolved).vertex_order,
              VertexOrder::kBfsFromRoot)
        << AlgorithmName(algorithm);
  }
}

TEST(RelabelKeyTest, SolverOptionsForKeyRoundTripsVertexOrder) {
  SolverOptions resolved;
  resolved.vertex_order = VertexOrder::kDegreeDesc;
  const QueryKey key =
      CanonicalQueryKey({0}, Algorithm::kGreedyReplace, resolved);
  EXPECT_EQ(SolverOptionsForKey(key, /*budget=*/3, /*threads=*/1).vertex_order,
            VertexOrder::kDegreeDesc);
}

TEST(RelabelKeyTest, PoolCacheKeysSeparateVertexOrders) {
  SolverOptions resolved;
  QueryKey original =
      CanonicalQueryKey({0, 1}, Algorithm::kAdvancedGreedy, resolved);
  resolved.vertex_order = VertexOrder::kDegreeDesc;
  QueryKey relabeled =
      CanonicalQueryKey({0, 1}, Algorithm::kAdvancedGreedy, resolved);

  auto key_a = PoolCache::KeyFor(/*graph_epoch=*/1, original);
  auto key_b = PoolCache::KeyFor(/*graph_epoch=*/1, relabeled);
  ASSERT_TRUE(key_a.has_value());
  ASSERT_TRUE(key_b.has_value());
  EXPECT_TRUE(*key_a < *key_b || *key_b < *key_a);
  EXPECT_NE(PoolCache::HashKey(*key_a), PoolCache::HashKey(*key_b));
}

TEST(RelabelKeyTest, BatchSolveMatchesStandaloneUnderRelabeling) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(150, 3, 13));
  std::vector<IminQuery> queries;
  for (VertexOrder order : kAllOrders) {
    IminQuery q;
    q.seeds = {0, 4};
    q.budget = 4;
    q.algorithm = Algorithm::kAdvancedGreedy;
    q.theta = 600;
    q.seed = 11;
    q.vertex_order = order;
    queries.push_back(q);
  }
  const BatchResult batch = SolveIminBatch(g, queries);
  ASSERT_EQ(batch.queries.size(), queries.size());
  // Three distinct orders cannot share a group.
  EXPECT_EQ(batch.stats.num_groups, 3u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch.queries[i].status.ok());
    SolverOptions opts;
    opts.algorithm = Algorithm::kAdvancedGreedy;
    opts.budget = 4;
    opts.theta = 600;
    opts.seed = 11;
    opts.vertex_order = *queries[i].vertex_order;
    auto standalone = SolveImin(g, queries[i].seeds, opts);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(batch.queries[i].result.blockers, standalone->blockers)
        << "order=" << static_cast<int>(*queries[i].vertex_order);
  }
}

}  // namespace
}  // namespace vblock
