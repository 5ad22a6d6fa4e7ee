// Tests for the persistent SamplePool and the incremental
// SpreadDecreaseEngine built on it: determinism across thread counts and
// reuse modes, exact agreement with from-scratch Algorithm-2 scoring on the
// same fixed sample set (also under 0/1 edge-split weights), prune-mode
// exactness on deterministic graphs, deadline handling inside the θ-loop,
// and allocation-free steady-state scoring rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "cascade/triggering.h"
#include "common/thread_pool.h"
#include "core/edge_blocking.h"
#include "core/greedy.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "domtree/dominator_tree.h"
#include "gen/dataset_catalog.h"
#include "gen/generators.h"
#include "obs/solve_trace.h"
#include "prob/probability_models.h"
#include "testing/toy_graphs.h"

// ---------------------------------------------------------------------------
// Global allocation counter and live-byte tally: replacing ::operator
// new/delete lets the steady-state test assert that scoring rounds perform
// no heap allocations (the workspace-reuse acceptance criterion), and the
// memory-account test compare an engine's reported bytes with what it
// really holds. Each block carries its requested size in a 16-byte header
// (keeping malloc's alignment) so delete can subtract it. The override is
// active for this whole test binary.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocation_count{0};
std::atomic<int64_t> g_live_bytes{0};
constexpr std::size_t kBlockHeader = 16;
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size + kBlockHeader)) {
    *static_cast<std::size_t*>(block) = size;
    g_live_bytes.fetch_add(static_cast<int64_t>(size),
                           std::memory_order_relaxed);
    return static_cast<char*>(block) + kBlockHeader;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kBlockHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace vblock {
namespace {

using testing::PaperFigure1Graph;
using testing::PathGraph;

SpreadDecreaseOptions EngineOptions(uint32_t theta, uint64_t seed,
                                    SampleReuse reuse, uint32_t threads = 1) {
  SpreadDecreaseOptions opts;
  opts.theta = theta;
  opts.seed = seed;
  opts.threads = threads;
  opts.sample_reuse = reuse;
  return opts;
}

// From-scratch Algorithm-2 scoring over θ samples (`sample_at(i)` returns
// sample i): one dominator tree per sample, with every vertex's weight (1,
// or `weights` by vertex id) added to Δ of each vertex on its idom chain
// below the root — Theorem 6 applied directly, independent of the
// engine's subtree-size pass. The incremental aggregate must match this
// exactly (every summand is an integer, normalized as Scores() does).
template <typename SampleAt>
SpreadDecreaseResult RescoreSamples(uint32_t theta, SampleAt sample_at,
                                    VertexId num_vertices,
                                    const std::vector<double>* weights) {
  SpreadDecreaseResult reference;
  reference.delta.assign(num_vertices, 0.0);
  double total_size = 0;
  for (uint32_t i = 0; i < theta; ++i) {
    const SampledGraph& sample = sample_at(i);
    const DominatorTree tree = ComputeDominatorTree(sample.View(), 0);
    for (VertexId local = 0; local < sample.NumVertices(); ++local) {
      const double w = weights ? (*weights)[sample.to_parent[local]] : 1.0;
      total_size += w;
      for (VertexId u = local; u != 0; u = tree.idom[u]) {
        reference.delta[sample.to_parent[u]] += w;
      }
    }
  }
  const double inv_theta = 1.0 / static_cast<double>(theta);
  for (double& d : reference.delta) d *= inv_theta;
  reference.expected_spread = total_size * inv_theta;
  return reference;
}

// RescoreSamples over the engine's *current* samples.
SpreadDecreaseResult RescoreEnginePool(
    const SpreadDecreaseEngine& engine, VertexId num_vertices,
    const std::vector<double>* weights = nullptr) {
  return RescoreSamples(
      engine.theta(),
      [&](uint32_t i) -> const SampledGraph& { return engine.PoolSample(i); },
      num_vertices, weights);
}

void ExpectScoresEqual(const SpreadDecreaseResult& got,
                       const SpreadDecreaseResult& want) {
  ASSERT_EQ(got.delta.size(), want.delta.size());
  for (size_t v = 0; v < want.delta.size(); ++v) {
    EXPECT_DOUBLE_EQ(got.delta[v], want.delta[v]) << "v=" << v;
  }
  EXPECT_DOUBLE_EQ(got.expected_spread, want.expected_spread);
}

TEST(SamplePoolEngineTest, IncrementalScoresMatchFromScratchRescoring) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 7));
  for (SampleReuse reuse : {SampleReuse::kResample, SampleReuse::kPrune}) {
    SCOPED_TRACE(reuse == SampleReuse::kPrune ? "prune" : "resample");
    SpreadDecreaseEngine engine(g, 0, EngineOptions(800, 29, reuse));
    ASSERT_TRUE(engine.Build());
    {
      SCOPED_TRACE("fresh build");
      ExpectScoresEqual(engine.Scores(),
                        RescoreEnginePool(engine, g.NumVertices()));
    }

    // Block a few rounds' worth of best candidates, then unblock one —
    // the full Block/Unblock surface GreedyReplace exercises.
    std::vector<VertexId> picked;
    for (int round = 0; round < 4; ++round) {
      VertexId best = engine.BestUnblocked();
      ASSERT_NE(best, kInvalidVertex);
      ASSERT_TRUE(engine.Block(best));
      picked.push_back(best);
    }
    ASSERT_TRUE(engine.Unblock(picked[1]));
    ExpectScoresEqual(engine.Scores(),
                      RescoreEnginePool(engine, g.NumVertices()));
  }
}

// The edge-blocking engine: 0/1 edge-split weights (auxiliary vertices 0)
// must keep the incremental aggregate exact through Build, Block and
// Unblock.
TEST(SamplePoolEngineTest, WeightedScoresMatchFromScratchRescoring) {
  const EdgeSplitInstance split =
      SplitEdges(WithWeightedCascade(GenerateBarabasiAlbert(150, 3, 19)));
  const VertexId n = split.graph.NumVertices();
  for (SampleReuse reuse : {SampleReuse::kResample, SampleReuse::kPrune}) {
    SCOPED_TRACE(reuse == SampleReuse::kPrune ? "prune" : "resample");
    SpreadDecreaseEngine engine(split.graph, 0, EngineOptions(600, 31, reuse),
                                /*model=*/nullptr, /*blocked=*/nullptr,
                                &split.weights);
    ASSERT_TRUE(engine.Build());
    {
      SCOPED_TRACE("build");
      ExpectScoresEqual(engine.Scores(),
                        RescoreEnginePool(engine, n, &split.weights));
    }
    // Block the best real vertex, then the best edge (auxiliary) twice.
    std::vector<VertexId> picked = {engine.BestUnblocked()};
    ASSERT_LT(picked[0], split.first_aux);
    ASSERT_TRUE(engine.Block(picked[0]));
    for (int round = 0; round < 2; ++round) {
      VertexId best = kInvalidVertex;
      for (VertexId aux = split.first_aux; aux < n; ++aux) {
        if (engine.blocked().Test(aux)) continue;
        if (best == kInvalidVertex || engine.Delta(aux) > engine.Delta(best)) {
          best = aux;
        }
      }
      ASSERT_GT(engine.Delta(best), 0.0);
      ASSERT_TRUE(engine.Block(best));
      picked.push_back(best);
    }
    {
      SCOPED_TRACE("block");
      ExpectScoresEqual(engine.Scores(),
                        RescoreEnginePool(engine, n, &split.weights));
    }
    ASSERT_TRUE(engine.Unblock(picked[1]));
    {
      SCOPED_TRACE("unblock");
      ExpectScoresEqual(engine.Scores(),
                        RescoreEnginePool(engine, n, &split.weights));
    }
  }
}

TEST(SamplePoolEngineTest, PruneModeBlockMatchesExactReachability) {
  // Figure-1 graph with v5 blocked: only v2 and v4 stay reachable, in every
  // world — prune mode must produce the exact restricted scores.
  Graph g = PaperFigure1Graph();
  SpreadDecreaseEngine engine(
      g, testing::kV1, EngineOptions(2000, 3, SampleReuse::kPrune));
  ASSERT_TRUE(engine.Build());
  ASSERT_TRUE(engine.Block(testing::kV5));
  EXPECT_DOUBLE_EQ(engine.Delta(testing::kV2), 1.0);
  EXPECT_DOUBLE_EQ(engine.Delta(testing::kV4), 1.0);
  EXPECT_DOUBLE_EQ(engine.Delta(testing::kV3), 0.0);
  EXPECT_DOUBLE_EQ(engine.Delta(testing::kV5), 0.0);
  EXPECT_DOUBLE_EQ(engine.Delta(testing::kV8), 0.0);
  EXPECT_DOUBLE_EQ(engine.ExpectedSpread(), 3.0);
}

TEST(SamplePoolEngineTest, PruneModeUnblockRestoresInitialScoresExactly) {
  // kPrune keeps the θ worlds fixed, so Block(v); Unblock(v) must take the
  // scores back to the freshly built state bit-for-bit.
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(200, 3, 11));
  SpreadDecreaseEngine engine(g, 0, EngineOptions(600, 17, SampleReuse::kPrune));
  ASSERT_TRUE(engine.Build());
  SpreadDecreaseResult before = engine.Scores();

  VertexId best = engine.BestUnblocked();
  ASSERT_NE(best, kInvalidVertex);
  ASSERT_TRUE(engine.Block(best));
  ASSERT_TRUE(engine.Unblock(best));

  SpreadDecreaseResult after = engine.Scores();
  EXPECT_EQ(before.delta, after.delta);
  EXPECT_DOUBLE_EQ(before.expected_spread, after.expected_spread);
}

// Same seed ⇒ identical blocker sequences for every thread count, for both
// algorithms in both reuse modes (the satellite determinism matrix).
TEST(SamplePoolEngineTest, GreedyBlockersInvariantAcrossThreadCounts) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(300, 3, 5));
  for (SampleReuse reuse : {SampleReuse::kResample, SampleReuse::kPrune}) {
    GreedyOptions ag;
    ag.budget = 6;
    ag.theta = 800;
    ag.seed = 41;
    ag.sample_reuse = reuse;
    GreedyOptions gr;
    gr.budget = 4;
    gr.theta = 600;
    gr.seed = 43;
    gr.sample_reuse = reuse;

    ag.threads = gr.threads = 1;
    const BlockerSelection ag_ref = AdvancedGreedy(g, 0, ag);
    const BlockerSelection gr_ref = GreedyReplace(g, 0, gr);
    ASSERT_FALSE(ag_ref.blockers.empty());
    ASSERT_FALSE(gr_ref.blockers.empty());

    for (uint32_t threads : {2u, 8u}) {
      ag.threads = gr.threads = threads;
      EXPECT_EQ(AdvancedGreedy(g, 0, ag).blockers, ag_ref.blockers)
          << "AG threads=" << threads << " reuse=" << static_cast<int>(reuse);
      EXPECT_EQ(GreedyReplace(g, 0, gr).blockers, gr_ref.blockers)
          << "GR threads=" << threads << " reuse=" << static_cast<int>(reuse);
    }
  }
}

TEST(SamplePoolEngineTest, TriggeringBlockersInvariantAcrossThreadCounts) {
  Graph g = WithWeightedCascade(GenerateErdosRenyi(150, 900, 13));
  IcTriggeringModel ic;
  GreedyOptions ag;
  ag.budget = 4;
  ag.theta = 500;
  ag.seed = 47;
  ag.triggering_model = &ic;
  for (SampleReuse reuse : {SampleReuse::kResample, SampleReuse::kPrune}) {
    ag.sample_reuse = reuse;
    ag.threads = 1;
    const BlockerSelection ref = AdvancedGreedy(g, 0, ag);
    ag.threads = 8;
    EXPECT_EQ(AdvancedGreedy(g, 0, ag).blockers, ref.blockers)
        << "reuse=" << static_cast<int>(reuse);
  }
}

TEST(SamplePoolEngineTest, DeadlineExpiresInsideBuildThetaLoop) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(2000, 4, 3));
  SpreadDecreaseEngine engine(
      g, 0, EngineOptions(500000, 1, SampleReuse::kPrune));
  EXPECT_FALSE(engine.Build(Deadline(0.02)));
  EXPECT_TRUE(engine.timed_out());

  GreedyOptions ag;
  ag.budget = 5;
  ag.theta = 500000;  // a θ-loop far beyond the deadline
  ag.time_limit_seconds = 0.02;
  BlockerSelection sel = AdvancedGreedy(g, 0, ag);
  EXPECT_TRUE(sel.stats.timed_out);
  EXPECT_TRUE(sel.blockers.empty());
}

TEST(SamplePoolEngineTest, GreedyReplaceSkipsRootSelfLoopCandidate) {
  // With drop_self_loops disabled the root appears in its own out-neighbor
  // list; phase 1 must skip it rather than hand it to the engine (whose
  // Block() forbids the root).
  GraphBuilder builder(GraphBuilder::Options{true, /*drop_self_loops=*/false});
  builder.AddEdge(0, 0, 1.0);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 0.5);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  GreedyOptions opts;
  opts.budget = 3;
  opts.theta = 200;
  opts.seed = 2;
  BlockerSelection sel = GreedyReplace(*g, 0, opts);
  ASSERT_EQ(sel.blockers.size(), 1u);
  EXPECT_EQ(sel.blockers[0], 1u);
}

TEST(SamplePoolEngineTest, ZeroBudgetAndSinkSeedSkipPoolBuild) {
  Graph g = PathGraph(8, 1.0);
  GreedyOptions ag;
  ag.budget = 0;
  ag.theta = 1000000;  // would take noticeable time if the pool were built
  EXPECT_TRUE(AdvancedGreedy(g, 0, ag).blockers.empty());

  GreedyOptions gr;
  gr.budget = 5;
  gr.theta = 1000000;
  // Vertex 7 is a sink: no out-neighbors, phase 1 has no candidates.
  EXPECT_TRUE(GreedyReplace(g, 7, gr).blockers.empty());
}

// Restore() must return a used engine to its freshly-Build() state
// bit-for-bit in BOTH reuse modes, with and without a build-time mask —
// the warm-pool cache's checkin invariant (service/pool_cache.h). Scores,
// per-sample regions, and a subsequent greedy run must all be
// indistinguishable from a brand-new engine's.
TEST(SamplePoolEngineTest, RestoreReturnsEngineToFreshBuildBitExactly) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 21));
  VertexMask build_mask(g.NumVertices());
  build_mask.Set(1);
  build_mask.Set(2);
  const VertexMask* const masks[] = {nullptr, &build_mask};
  for (const VertexMask* mask : masks) {
    for (SampleReuse reuse : {SampleReuse::kResample, SampleReuse::kPrune}) {
      SCOPED_TRACE(reuse == SampleReuse::kPrune ? "prune" : "resample");
      SCOPED_TRACE(mask ? "build mask" : "no mask");
      SpreadDecreaseEngine fresh(g, 0, EngineOptions(500, 23, reuse),
                                 nullptr, mask);
      ASSERT_TRUE(fresh.Build());
      const SpreadDecreaseResult want = fresh.Scores();

      SpreadDecreaseEngine used(g, 0, EngineOptions(500, 23, reuse), nullptr,
                                mask);
      ASSERT_TRUE(used.Build());
      // A realistic mutation history: greedy blocks plus an unblock (the
      // GreedyReplace phase-2 pattern).
      VertexId a = used.BestUnblocked();
      ASSERT_TRUE(used.Block(a));
      VertexId b = used.BestUnblocked();
      ASSERT_TRUE(used.Block(b));
      ASSERT_TRUE(used.Unblock(a));
      used.Restore();

      EXPECT_EQ(used.blocked().ToVector(), fresh.blocked().ToVector());
      const SpreadDecreaseResult got = used.Scores();
      EXPECT_EQ(got.delta, want.delta);
      EXPECT_EQ(got.expected_spread, want.expected_spread);
      for (uint32_t i = 0; i < used.theta(); ++i) {
        const SampledGraph& restored = used.PoolSample(i);
        const SampledGraph& pristine = fresh.PoolSample(i);
        ASSERT_EQ(restored.to_parent, pristine.to_parent) << "sample " << i;
        ASSERT_EQ(restored.offsets, pristine.offsets) << "sample " << i;
        ASSERT_EQ(restored.targets, pristine.targets) << "sample " << i;
      }

      // And the restored engine replays a full greedy run identically.
      BlockerSelection from_fresh =
          AdvancedGreedyWithEngine(&fresh, /*budget=*/5, Deadline(), nullptr);
      BlockerSelection from_restored =
          AdvancedGreedyWithEngine(&used, /*budget=*/5, Deadline(), nullptr);
      EXPECT_EQ(from_fresh.blockers, from_restored.blockers);
      EXPECT_EQ(from_fresh.stats.round_best_delta,
                from_restored.stats.round_best_delta);
    }
  }
}

// A restore re-derives only the samples touched since the LAST restore —
// repeated warm cycles of a hot key must not creep toward O(θ) work
// (regression: revisions never return to their build value under kPrune,
// so dirtiness must be tracked explicitly, not inferred from revisions).
TEST(SamplePoolTest, BeginRestoreDirtySetDoesNotCreepAcrossCycles) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(150, 3, 13));
  for (SampleReuse reuse : {SampleReuse::kPrune, SampleReuse::kResample}) {
    SCOPED_TRACE(reuse == SampleReuse::kPrune ? "prune" : "resample");
    SamplePool::Options options;
    options.theta = 80;
    options.seed = 3;
    options.reuse = reuse;
    SamplePool pool(g, 0, options);
    SamplePool::Scratch scratch = pool.MakeScratch();
    for (uint32_t i = 0; i < options.theta; ++i) {
      pool.DeriveSample(i, &scratch);
    }
    pool.FinalizeBuild();
    for (uint32_t i = 0; i < options.theta; ++i) pool.AddToIndex(i);

    auto block_restore_cycle = [&](VertexId v) {
      std::vector<uint32_t> dirty;
      pool.BeginBlock(v, &dirty);
      for (uint32_t i : dirty) {
        pool.RemoveFromIndex(i);
        pool.DeriveSample(i, &scratch);
        pool.AddToIndex(i);
      }
      std::vector<uint32_t> restore;
      pool.BeginRestore(&restore);
      EXPECT_EQ(restore, dirty) << "restore must re-derive exactly what "
                                   "this cycle touched";
      for (uint32_t i : restore) {
        pool.RemoveFromIndex(i);
        pool.DeriveSample(i, &scratch);
        pool.AddToIndex(i);
      }
      return dirty.size();
    };

    // Two cycles over the same vertex: the second must re-derive the same
    // sample count as the first (no accumulation from cycle 1's restore),
    // and a restore with nothing touched must be empty.
    const size_t first = block_restore_cycle(5);
    ASSERT_GT(first, 0u);
    const size_t second = block_restore_cycle(5);
    EXPECT_EQ(second, first);
    std::vector<uint32_t> idle;
    pool.BeginRestore(&idle);
    EXPECT_TRUE(idle.empty());
  }
}

// A SamplePool driven as the engine drives it: built and indexed, and
// each mask change's dirty samples retired, re-derived and re-published.
struct DrivenPool {
  SamplePool pool;
  SamplePool::Scratch scratch;

  DrivenPool(const Graph& g, const SamplePool::Options& options,
             const TriggeringModel* model = nullptr)
      : pool(g, 0, options, model), scratch(pool.MakeScratch()) {
    for (uint32_t i = 0; i < options.theta; ++i) {
      pool.DeriveSample(i, &scratch);
    }
    pool.FinalizeBuild();
    for (uint32_t i = 0; i < options.theta; ++i) pool.AddToIndex(i);
  }
  void Rederive(const std::vector<uint32_t>& dirty) {
    for (uint32_t i : dirty) pool.RemoveFromIndex(i);
    for (uint32_t i : dirty) pool.DeriveSample(i, &scratch);
    for (uint32_t i : dirty) pool.AddToIndex(i);
  }
  std::vector<uint32_t> Block(VertexId v) {
    std::vector<uint32_t> dirty;
    pool.BeginBlock(v, &dirty);
    Rederive(dirty);
    return dirty;
  }
  std::vector<uint32_t> Unblock(VertexId v) {
    std::vector<uint32_t> dirty;
    pool.BeginUnblock(v, &dirty);
    Rederive(dirty);
    return dirty;
  }
};

// A kResample Unblock on an IC pool lists only the samples the vertex
// joins and extends them: each holds the vertex afterwards, right after
// its old vertices, and keeps their local ids and live edges; every other
// sample keeps its bytes. Both sampler kinds, for a vertex the root has
// an edge into (every sample is a candidate) and for one it has not.
TEST(SamplePoolTest, ResampleUnblockExtendsOnlyTheSamplesTheVertexJoins) {
  const Graph g = WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 21));
  const std::span<const VertexId> from_root = g.OutNeighbors(0);
  for (SamplerKind kind :
       {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
    SamplePool::Options options;
    options.theta = 300;
    options.seed = 23;
    options.reuse = SampleReuse::kResample;
    options.sampler_kind = kind;
    for (bool adjacent : {true, false}) {
      SCOPED_TRACE(std::string(kind == SamplerKind::kPerEdgeCoin ? "coin"
                                                                 : "skip") +
                   (adjacent ? " root-adjacent" : " not root-adjacent"));
      DrivenPool driven(g, options);
      // The vertex of the wanted kind that the most built regions hold.
      std::vector<uint32_t> held(g.NumVertices(), 0);
      for (uint32_t i = 0; i < options.theta; ++i) {
        const std::vector<VertexId>& region = driven.pool.sample(i).to_parent;
        for (size_t k = 1; k < region.size(); ++k) ++held[region[k]];
      }
      VertexId v = kInvalidVertex;
      for (VertexId u = 1; u < g.NumVertices(); ++u) {
        const bool is_adjacent =
            std::find(from_root.begin(), from_root.end(), u) !=
            from_root.end();
        if (is_adjacent == adjacent &&
            (v == kInvalidVertex || held[u] > held[v])) {
          v = u;
        }
      }
      ASSERT_NE(v, kInvalidVertex);
      ASSERT_GT(held[v], 0u);

      driven.Block(v);
      std::vector<SampledGraph> before;
      for (uint32_t i = 0; i < options.theta; ++i) {
        before.push_back(driven.pool.sample(i));
      }
      const std::vector<uint32_t> dirty = driven.Unblock(v);
      ASSERT_FALSE(dirty.empty());
      EXPECT_LT(dirty.size(), options.theta);
      EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
      std::vector<uint8_t> listed(options.theta, 0);
      for (uint32_t i : dirty) listed[i] = 1;
      for (uint32_t i = 0; i < options.theta; ++i) {
        const SampledGraph& now = driven.pool.sample(i);
        const SampledGraph& was = before[i];
        if (!listed[i]) {
          ASSERT_EQ(now.to_parent, was.to_parent) << "sample " << i;
          ASSERT_EQ(now.offsets, was.offsets) << "sample " << i;
          ASSERT_EQ(now.targets, was.targets) << "sample " << i;
          continue;
        }
        const VertexId old_size = was.NumVertices();
        ASSERT_GT(now.NumVertices(), old_size) << "sample " << i;
        EXPECT_EQ(now.to_parent[old_size], v) << "sample " << i;
        EXPECT_TRUE(std::equal(was.to_parent.begin(), was.to_parent.end(),
                               now.to_parent.begin()))
            << "sample " << i;
        for (VertexId u = 0; u < old_size; ++u) {
          const uint32_t old_row = was.offsets[u + 1] - was.offsets[u];
          ASSERT_GE(now.offsets[u + 1] - now.offsets[u], old_row);
          EXPECT_TRUE(std::equal(was.targets.begin() + was.offsets[u],
                                 was.targets.begin() + was.offsets[u + 1],
                                 now.targets.begin() + now.offsets[u]))
              << "sample " << i << " row " << u;
        }
      }
    }
  }
}

// A triggering-model (LT) pool keeps the whole-pool re-draw at a
// kResample Unblock: the LT in-edges of one vertex are not independent,
// so the IC extension's argument does not hold there.
TEST(SamplePoolTest, TriggeringResampleUnblockRedrawsEverySample) {
  const Graph g = WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 21));
  const LtTriggeringModel lt(g);
  SamplePool::Options options;
  options.theta = 200;
  options.seed = 5;
  options.reuse = SampleReuse::kResample;
  DrivenPool driven(g, options, &lt);
  const VertexId v = g.OutNeighbors(0)[0];
  ASSERT_FALSE(driven.Block(v).empty());
  EXPECT_EQ(driven.Unblock(v).size(), options.theta);
}

// Restoring twice (and restoring an untouched engine) is a no-op.
TEST(SamplePoolEngineTest, RestoreIsIdempotent) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(150, 3, 3));
  SpreadDecreaseEngine engine(g, 0,
                              EngineOptions(200, 5, SampleReuse::kResample));
  ASSERT_TRUE(engine.Build());
  const SpreadDecreaseResult want = engine.Scores();
  engine.Restore();  // untouched: nothing to do
  ASSERT_TRUE(engine.Block(engine.BestUnblocked()));
  engine.Restore();
  engine.Restore();
  EXPECT_EQ(engine.Scores().delta, want.delta);
  EXPECT_EQ(engine.Scores().expected_spread, want.expected_spread);
}

// The restore contract's configurations: both reuse modes × both sampler
// kinds × with and without a build-time mask on IC pools, plus an LT
// triggering pool per reuse mode.
struct RestoreCase {
  SampleReuse reuse;
  SamplerKind kind;
  bool masked;
  bool lt;
};

std::vector<RestoreCase> RestoreCases() {
  std::vector<RestoreCase> cases;
  for (SampleReuse reuse : {SampleReuse::kResample, SampleReuse::kPrune}) {
    for (SamplerKind kind :
         {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
      for (bool masked : {false, true}) {
        cases.push_back({reuse, kind, masked, /*lt=*/false});
      }
    }
    cases.push_back(
        {reuse, SamplerKind::kGeometricSkip, /*masked=*/false, /*lt=*/true});
  }
  return cases;
}

std::string CaseName(const RestoreCase& c) {
  std::string name = c.reuse == SampleReuse::kPrune ? "prune" : "resample";
  name += c.kind == SamplerKind::kPerEdgeCoin ? " coin" : " skip";
  if (c.masked) name += " build-mask";
  if (c.lt) name += " lt";
  return name;
}

// One graph, build mask and LT model shared by every RestoreCase; engines
// and pools hold references into it.
struct RestoreFixture {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 21));
  VertexMask mask = MakeMask(g.NumVertices());
  LtTriggeringModel lt{g};
  static constexpr uint32_t kTheta = 300;
  static constexpr uint64_t kSeed = 23;

  static VertexMask MakeMask(VertexId n) {
    VertexMask m(n);
    m.Set(1);
    m.Set(2);
    return m;
  }
  const TriggeringModel* Model(const RestoreCase& c) const {
    return c.lt ? &lt : nullptr;
  }
  const VertexMask* Mask(const RestoreCase& c) const {
    return c.masked ? &mask : nullptr;
  }
  std::unique_ptr<SpreadDecreaseEngine> Engine(const RestoreCase& c) const {
    SpreadDecreaseOptions opts = EngineOptions(kTheta, kSeed, c.reuse);
    opts.sampler_kind = c.kind;
    auto engine = std::make_unique<SpreadDecreaseEngine>(g, 0, opts,
                                                         Model(c), Mask(c));
    EXPECT_TRUE(engine->Build());
    return engine;
  }
};

void ExpectSameRegions(const SpreadDecreaseEngine& engine,
                       const SamplePool& pool) {
  for (uint32_t i = 0; i < engine.theta(); ++i) {
    const SampledGraph& a = engine.PoolSample(i);
    const SampledGraph& b = pool.sample(i);
    ASSERT_EQ(a.to_parent, b.to_parent) << "sample " << i;
    ASSERT_EQ(a.offsets, b.offsets) << "sample " << i;
    ASSERT_EQ(a.targets, b.targets) << "sample " << i;
  }
}

// The unblocked non-root vertex with the smallest positive Δ: blocking it
// touches few samples (at most Δ·θ).
VertexId LightVertex(const SpreadDecreaseEngine& engine) {
  VertexId light = kInvalidVertex;
  for (VertexId v = 0; v < engine.graph().NumVertices(); ++v) {
    if (v == engine.root() || engine.blocked().Test(v)) continue;
    const double d = engine.Delta(v);
    if (d > 0 && (light == kInvalidVertex || d < engine.Delta(light))) {
      light = v;
    }
  }
  return light;
}

// Restore by put-back (the engine's undo log) ≡ restore by re-derive (a
// pool driven directly, as perfbench's mirror does): after a restore, the
// regions, Δ and spread agree bit for bit, and so does the world a later
// Block draws. Two histories: greedy Blocks until most samples are
// touched plus an Unblock, then one light Block that touches few.
TEST(SamplePoolEngineTest, RestoreByPutBackMatchesRestoreByRederive) {
  const RestoreFixture fx;
  for (const RestoreCase& c : RestoreCases()) {
    SCOPED_TRACE(CaseName(c));
    std::unique_ptr<SpreadDecreaseEngine> engine = fx.Engine(c);

    SamplePool::Options po;
    po.theta = RestoreFixture::kTheta;
    po.seed = RestoreFixture::kSeed;
    po.reuse = c.reuse;
    po.sampler_kind = c.kind;
    SamplePool mirror(fx.g, 0, po, fx.Model(c), fx.Mask(c));
    SamplePool::Scratch scratch = mirror.MakeScratch();
    for (uint32_t i = 0; i < po.theta; ++i) mirror.DeriveSample(i, &scratch);
    mirror.FinalizeBuild();
    for (uint32_t i = 0; i < po.theta; ++i) mirror.AddToIndex(i);
    std::vector<uint32_t> dirty;
    std::vector<uint8_t> touched(po.theta, 0);
    uint32_t num_touched = 0;
    auto rederive = [&] {
      for (uint32_t i : dirty) {
        num_touched += touched[i] == 0 ? 1 : 0;
        touched[i] = 1;
        mirror.RemoveFromIndex(i);
      }
      for (uint32_t i : dirty) mirror.DeriveSample(i, &scratch);
      for (uint32_t i : dirty) mirror.AddToIndex(i);
      dirty.clear();
    };
    auto block = [&](VertexId v) {
      ASSERT_TRUE(engine->Block(v));
      mirror.BeginBlock(v, &dirty);
      rederive();
    };
    auto restore = [&] {
      engine->Restore();
      mirror.BeginRestore(&dirty);
      ASSERT_EQ(dirty.size(), num_touched);
      for (uint32_t i : dirty) {
        mirror.RemoveFromIndex(i);
        mirror.DeriveSample(i, &scratch);
        mirror.AddToIndex(i);
      }
      dirty.clear();
      std::fill(touched.begin(), touched.end(), 0);
      num_touched = 0;
      EXPECT_EQ(engine->blocked().ToVector(),
                mirror.blocked_mask().ToVector());
      ExpectSameRegions(*engine, mirror);
      const SpreadDecreaseResult got = engine->Scores();
      const SpreadDecreaseResult want = RescoreSamples(
          po.theta,
          [&](uint32_t i) -> const SampledGraph& { return mirror.sample(i); },
          fx.g.NumVertices(), nullptr);
      EXPECT_EQ(got.delta, want.delta);
      EXPECT_EQ(got.expected_spread, want.expected_spread);
    };

    const VertexId a = engine->BestUnblocked();
    block(a);
    while (2 * num_touched < po.theta) block(engine->BestUnblocked());
    ASSERT_TRUE(engine->Unblock(a));
    mirror.BeginUnblock(a, &dirty);
    rederive();
    ExpectSameRegions(*engine, mirror);
    restore();

    block(LightVertex(*engine));
    restore();

    // The next Block re-derives on the restored revisions in both.
    block(engine->BestUnblocked());
    ExpectSameRegions(*engine, mirror);
  }
}

// Restore puts regions back; it neither draws a sample nor builds a
// dominator tree.
TEST(SamplePoolEngineTest, RestoreDrawsNothing) {
  const RestoreFixture fx;
  for (const RestoreCase& c : RestoreCases()) {
    SCOPED_TRACE(CaseName(c));
    std::unique_ptr<SpreadDecreaseEngine> engine = fx.Engine(c);
    obs::SolveTrace trace;
    engine->set_trace(&trace);
    GreedyReplaceWithEngine(engine.get(), /*budget=*/5, Deadline(), &trace);
    const uint64_t draws = trace.stage_calls(obs::SolveStage::kSampleDraw);
    const uint64_t trees = trace.stage_calls(obs::SolveStage::kDomTree);
    ASSERT_GT(draws, 0u);
    engine->Restore();
    EXPECT_EQ(trace.stage_calls(obs::SolveStage::kSampleDraw), draws);
    EXPECT_EQ(trace.stage_calls(obs::SolveStage::kDomTree), trees);
    EXPECT_EQ(trace.stage_calls(obs::SolveStage::kRestore), 1u);
    engine->set_trace(nullptr);
  }
}

// Repeated AG and GR + Restore cycles on one engine stay bit-identical to
// a fresh build, and a parked engine's account does not grow after the
// first cycle: Restore frees the displaced regions and sizes.
TEST(SamplePoolEngineTest, RepeatedSolveRestoreCyclesStayFreshAndFlat) {
  const RestoreFixture fx;
  for (const RestoreCase& c : RestoreCases()) {
    SCOPED_TRACE(CaseName(c));
    const SpreadDecreaseResult want = fx.Engine(c)->Scores();
    std::unique_ptr<SpreadDecreaseEngine> engine = fx.Engine(c);
    uint64_t parked_after_first = 0;
    std::vector<VertexId> ag_first, gr_first;
    for (int cycle = 0; cycle < 3; ++cycle) {
      SCOPED_TRACE("cycle " + std::to_string(cycle));
      const BlockerSelection ag = AdvancedGreedyWithEngine(
          engine.get(), /*budget=*/5, Deadline(), nullptr);
      engine->Restore();
      SpreadDecreaseResult got = engine->Scores();
      EXPECT_EQ(got.delta, want.delta);
      EXPECT_EQ(got.expected_spread, want.expected_spread);

      const BlockerSelection gr = GreedyReplaceWithEngine(
          engine.get(), /*budget=*/5, Deadline(), nullptr);
      engine->Restore();
      got = engine->Scores();
      EXPECT_EQ(got.delta, want.delta);
      EXPECT_EQ(got.expected_spread, want.expected_spread);

      engine->TrimScratch();
      const uint64_t parked = engine->MemoryUsageBytes();
      if (cycle == 0) {
        parked_after_first = parked;
        ag_first = ag.blockers;
        gr_first = gr.blockers;
      } else {
        EXPECT_LE(parked, parked_after_first);
        EXPECT_EQ(ag.blockers, ag_first);
        EXPECT_EQ(gr.blockers, gr_first);
      }
    }
  }
}

// kPrune keeps no second copy of its regions: a sample's pristine region
// is its current one until its first re-derive, and its undo slot after.
// What remains beyond a kResample engine is the pristine CSR index.
TEST(SamplePoolEngineTest, PruneEngineHoldsOneCopyOfEachRegion) {
  const Graph email =
      WithWeightedCascade(MakeDataset(*FindDataset("EmailCore"), 1.0, 1));
  SpreadDecreaseEngine prune(email, 0,
                             EngineOptions(1000, 1, SampleReuse::kPrune));
  SpreadDecreaseEngine resample(
      email, 0, EngineOptions(1000, 1, SampleReuse::kResample));
  ASSERT_TRUE(prune.Build());
  ASSERT_TRUE(resample.Build());
  EXPECT_LE(static_cast<double>(prune.MemoryUsageBytes()),
            1.15 * static_cast<double>(resample.MemoryUsageBytes()));
}

TEST(SamplePoolTest, MemoryUsageBytesTracksPoolFootprint) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(200, 3, 9));
  SamplePool::Options small;
  small.theta = 100;
  small.seed = 7;
  small.reuse = SampleReuse::kPrune;
  SamplePool pool(g, 0, small);
  SamplePool::Scratch scratch = pool.MakeScratch();
  for (uint32_t i = 0; i < small.theta; ++i) pool.DeriveSample(i, &scratch);
  pool.FinalizeBuild();
  for (uint32_t i = 0; i < small.theta; ++i) pool.AddToIndex(i);
  const uint64_t small_bytes = pool.MemoryUsageBytes();
  EXPECT_GT(small_bytes, 0u);
  // The regions alone are a lower bound on the accounting.
  EXPECT_GE(small_bytes, pool.TotalRegionVertices() * sizeof(VertexId));

  // 4× the samples must grow the footprint substantially.
  SamplePool::Options big = small;
  big.theta = 400;
  SamplePool pool4(g, 0, big);
  SamplePool::Scratch scratch4 = pool4.MakeScratch();
  for (uint32_t i = 0; i < big.theta; ++i) pool4.DeriveSample(i, &scratch4);
  pool4.FinalizeBuild();
  for (uint32_t i = 0; i < big.theta; ++i) pool4.AddToIndex(i);
  EXPECT_GT(pool4.MemoryUsageBytes(), 2 * small_bytes);
}

TEST(SamplePoolEngineTest, EngineMemoryUsageIncludesScoringState) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(200, 3, 9));
  SpreadDecreaseEngine engine(g, 0,
                              EngineOptions(200, 7, SampleReuse::kPrune));
  ASSERT_TRUE(engine.Build());
  // The engine's account must cover at least its pool plus the score
  // vector (one double per vertex).
  EXPECT_GE(engine.MemoryUsageBytes(),
            g.NumVertices() * sizeof(double));
}

TEST(SamplePoolEngineTest, ParkedEngineAccountCoversEveryHeldByte) {
  // Large n, small regions: the pool holds about a hundred vertices per
  // sample while the surviving worker's sampler keeps O(n) visitation
  // arrays, so an account that skips per-worker scratch falls far short.
  // Vertex 1 is in about 99% of the regions, so Block(1) fills most undo
  // slots. The regions are large enough that the one a worker keeps after
  // a kResample Block exceeds the account's slack.
  Graph g = PathGraph(100000, 0.99);
  g.GroupedView();  // graph-owned, not the engine's: built before the tally
  ExecutorHelpers();  // process-wide, not the engine's: started before too
  for (SampleReuse reuse : {SampleReuse::kPrune, SampleReuse::kResample}) {
    SCOPED_TRACE(reuse == SampleReuse::kPrune ? "prune" : "resample");
    const int64_t before = g_live_bytes.load();
    SpreadDecreaseEngine engine(
        g, 0, EngineOptions(64, 3, reuse, /*threads=*/2));
    ASSERT_TRUE(engine.Build());
    // Mid-request: the touched samples' built regions and sizes sit in
    // the undo slots beside their re-derived ones, and both slots'
    // workers hold their scratch.
    ASSERT_TRUE(engine.Block(1));
    ASSERT_TRUE(engine.Unblock(1));
    int64_t held = g_live_bytes.load() - before;
    ASSERT_GT(held, 0);
    EXPECT_GE(engine.MemoryUsageBytes(), static_cast<uint64_t>(held));
    // Under kResample a Block after an Unblock prunes the current regions,
    // so each worker also holds the last region it swapped out of a
    // sample's slot.
    ASSERT_TRUE(engine.Block(1));
    held = g_live_bytes.load() - before;
    EXPECT_GE(engine.MemoryUsageBytes(), static_cast<uint64_t>(held));

    engine.Restore();
    engine.TrimScratch();  // what the warm-pool cache does before parking
    held = g_live_bytes.load() - before;
    ASSERT_GT(held, 0);
    EXPECT_GE(engine.MemoryUsageBytes(), static_cast<uint64_t>(held));
  }
}

TEST(SamplePoolEngineTest, SteadyStateScoringRoundsDoNotAllocate) {
  // Deterministic path (p=1): every sample is the full path, so after the
  // first Block every buffer — prune scratch, dominator workspace, index
  // lists, cached sizes — is at its high-water mark and later rounds must
  // be allocation-free. threads=1 keeps the engine on its inline path.
  Graph g = PathGraph(60, 1.0);
  SpreadDecreaseEngine engine(g, 0, EngineOptions(64, 9, SampleReuse::kPrune));
  ASSERT_TRUE(engine.Build());
  ASSERT_TRUE(engine.Block(50));  // warm-up: grows every reusable buffer

  uint64_t before = g_allocation_count.load();
  bool ok = true;
  VertexId picked = kInvalidVertex;
  for (VertexId v : {VertexId{40}, VertexId{30}, VertexId{20}}) {
    picked = engine.BestUnblocked();
    ok = ok && picked != kInvalidVertex;
    ok = ok && engine.Block(v);
  }
  uint64_t after = g_allocation_count.load();

  EXPECT_TRUE(ok);
  EXPECT_EQ(picked, 1u);  // suffix deltas: vertex 1 always dominates
  EXPECT_EQ(after - before, 0u)
      << "steady-state Block/BestUnblocked rounds allocated";
}

}  // namespace
}  // namespace vblock
