// Tests for geometric-skip live-edge sampling over the probability-grouped
// adjacency: grouped-view round-trip (the per-vertex permutation restores
// the original edge order and preserves every probability bit-for-bit),
// subset-distribution checks on fan-out gadgets (chi-square bound against
// the closed form), thread-count invariance and pinned default worlds
// under kGeometricSkip, allocation-free steady-state sampling, and a
// statistical cross-check that blocked-spread estimates under both kinds
// agree within 2% on a WC-model generator graph. Also covers EstimateSpread / EstimateActivationProbabilities
// thread-count bit-invariance on the thread pool, and the parallel
// flat-buffer Brandes.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "cascade/monte_carlo.h"
#include "cascade/rr_sets.h"
#include "cascade/triggering.h"
#include "core/betweenness.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "gen/dataset_catalog.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/prob_grouped_view.h"
#include "prob/probability_models.h"
#include "sampling/reachable_sampler.h"
#include "sampling/sample_pool.h"
#include "testing/toy_graphs.h"

// ---------------------------------------------------------------------------
// Global allocation counter (one override per test binary): lets the
// steady-state test assert that skip-kernel sampling performs no heap
// allocations once every buffer is at its high-water mark.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

// GCC flags free() inside the replaced sized operator delete when a local
// vector's teardown is fully inlined — a false positive (the matching
// replaced operator new is malloc-backed).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow variants are replaced too: library code (e.g. libstdc++'s
// temporary buffers) pairs nothrow-new with ordinary delete, which would
// otherwise mix the runtime's allocator with this file's malloc-backed one.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace vblock {
namespace {

using testing::PathGraph;

// ------------------------------------------------------------ NextGeometric

TEST(NextGeometricTest, MatchesGeometricMoments) {
  // E[failures before success] = (1-p)/p; check within 2% over 200k draws.
  for (double p : {0.5, 0.1, 0.01}) {
    const double inv_log1m = 1.0 / std::log1p(-p);
    Rng rng(7);
    double total = 0;
    const int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
      total += static_cast<double>(rng.NextGeometric(inv_log1m));
    }
    const double mean = total / kDraws;
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(mean, expected, 0.02 * expected + 0.01) << "p=" << p;
  }
}

TEST(NextGeometricTest, SaturatesInsteadOfOverflowing) {
  // p so small that log(U)/log(1-p) overflows any integer: the draw must
  // come back as the huge sentinel, not undefined behavior.
  const double p = 1e-300;
  const double inv_log1m = 1.0 / std::log1p(-p);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(rng.NextGeometric(inv_log1m), uint64_t{1} << 61);
  }
}

// ------------------------------------------------------------- grouped view

Graph InterleavedProbGraph() {
  // Out-edges of 0 deliberately interleave three probability values so the
  // grouped order is a genuine (non-identity) permutation.
  GraphBuilder builder;
  const double probs[] = {0.3, 0.7, 0.3, 0.1, 0.7, 0.3, 0.1, 0.7, 0.7};
  for (VertexId k = 0; k < 9; ++k) builder.AddEdge(0, k + 1, probs[k]);
  builder.AddEdge(1, 2, 0.3);
  builder.AddEdge(2, 3, 1.0);
  builder.AddEdge(3, 4, 0.0);
  auto g = builder.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(*g);
}

TEST(ProbGroupedViewTest, RoundTripRestoresOriginalEdgeOrder) {
  for (const Graph& g :
       {InterleavedProbGraph(),
        WithTrivalency(GenerateErdosRenyi(80, 600, 3), 5),
        WithWeightedCascade(GenerateBarabasiAlbert(120, 3, 7))}) {
    const ProbGroupedView& view = g.GroupedView();
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      auto original = g.OutNeighbors(u);
      auto original_probs = g.OutProbabilities(u);
      auto grouped = view.GroupedOutNeighbors(u);
      ASSERT_EQ(grouped.size(), original.size());
      std::vector<uint8_t> seen(original.size(), 0);
      for (uint32_t k = 0; k < grouped.size(); ++k) {
        const uint32_t orig = view.OutOriginalPos(u, k);
        ASSERT_LT(orig, original.size());
        EXPECT_FALSE(seen[orig]) << "permutation must be a bijection";
        seen[orig] = 1;
        // The grouped edge is the original edge: same target, identical
        // probability bits, same global EdgeId.
        EXPECT_EQ(grouped[k], original[orig]);
        EXPECT_EQ(view.OutProbability(u, k), original_probs[orig]);
        EXPECT_EQ(view.OutOriginalEdgeId(u, k), g.OutEdgeId(u, orig));
      }
    }
    // In-edge side: same permutation contract.
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      auto original = g.InNeighbors(v);
      auto original_probs = g.InProbabilities(v);
      auto grouped = view.GroupedInNeighbors(v);
      ASSERT_EQ(grouped.size(), original.size());
      std::vector<uint8_t> seen(original.size(), 0);
      for (uint32_t k = 0; k < grouped.size(); ++k) {
        const uint32_t orig = view.InOriginalPos(v, k);
        ASSERT_LT(orig, original.size());
        EXPECT_FALSE(seen[orig]);
        seen[orig] = 1;
        EXPECT_EQ(grouped[k], original[orig]);
        EXPECT_EQ(view.InProbability(v, k), original_probs[orig]);
      }
    }
  }
}

TEST(ProbGroupedViewTest, RunsPartitionEachVertexIntoDistinctClasses) {
  Graph g = WithTrivalency(GenerateErdosRenyi(100, 900, 11), 13);
  const ProbGroupedView& view = g.GroupedView();
  EXPECT_EQ(view.NumClasses(), 3u);  // trivalency: {0.1, 0.01, 0.001}
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    uint64_t total = 0;
    std::vector<uint8_t> class_seen(view.NumClasses(), 0);
    for (const ProbGroupedView::Run& run : view.OutRuns(u)) {
      EXPECT_GT(run.length, 0u);
      EXPECT_FALSE(class_seen[run.class_id])
          << "a class must form one maximal run per vertex";
      class_seen[run.class_id] = 1;
      total += run.length;
    }
    EXPECT_EQ(total, g.OutDegree(u));
  }
}

TEST(ProbGroupedViewTest, CachedViewIsSharedAndSurvivesCopies) {
  Graph g = WithWeightedCascade(GenerateErdosRenyi(50, 300, 17));
  const ProbGroupedView* first = &g.GroupedView();
  EXPECT_EQ(first, &g.GroupedView());  // lazy build happens once

  Graph copy = g;  // the copy rebuilds its own view lazily
  const ProbGroupedView& copied_view = copy.GroupedView();
  EXPECT_NE(first, &copied_view);
  EXPECT_EQ(copied_view.NumClasses(), first->NumClasses());
}

// --------------------------------------------- subset distribution equality

// Star gadget: root 0 with `fan` leaves, every edge probability p. The live
// out-edge subset of the root is read off the sample's vertex set.
Graph StarGraph(VertexId fan, double p) {
  GraphBuilder builder;
  for (VertexId k = 0; k < fan; ++k) builder.AddEdge(0, k + 1, p);
  auto g = builder.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(*g);
}

// Chi-square statistic of the observed subset counts against the exact
// product-Bernoulli distribution.
double SubsetChiSquare(const std::vector<uint64_t>& counts, VertexId fan,
                       double p, uint64_t rounds) {
  double chi = 0;
  for (size_t mask = 0; mask < counts.size(); ++mask) {
    const int ones = __builtin_popcountll(mask);
    const double prob = std::pow(p, ones) * std::pow(1.0 - p, fan - ones);
    const double expected = prob * static_cast<double>(rounds);
    const double diff = static_cast<double>(counts[mask]) - expected;
    chi += diff * diff / expected;
  }
  return chi;
}

TEST(SkipSamplingDistributionTest, StarSubsetFrequenciesMatchClosedForm) {
  // 64 subset cells with >= ~200 expected observations each. chi-square
  // with 63 degrees of freedom: 103.4 is the 0.999 quantile — both kinds
  // must sit below a slightly padded bound (the draw is deterministic in
  // the seed). At this fan/probability the cost model keeps the skip kind
  // on its plain-scan branch, which this test pins down.
  const VertexId kFan = 6;
  const double kP = 0.35;
  const uint64_t kRounds = 120000;
  Graph g = StarGraph(kFan, kP);
  EXPECT_FALSE(g.GroupedView().OutUsesRunWalk(0));

  for (SamplerKind kind :
       {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
    ReachableSampler sampler(g, 0, nullptr, kind);
    SampledGraph s;
    Rng rng(2024);
    std::vector<uint64_t> counts(size_t{1} << kFan, 0);
    for (uint64_t i = 0; i < kRounds; ++i) {
      sampler.Sample(rng, &s);
      uint64_t mask = 0;
      for (VertexId parent : s.to_parent) {
        if (parent > 0) mask |= uint64_t{1} << (parent - 1);
      }
      ++counts[mask];
    }
    const double chi = SubsetChiSquare(counts, kFan, kP, kRounds);
    EXPECT_LT(chi, 110.0) << "kind=" << static_cast<int>(kind);
  }
}

TEST(SkipSamplingDistributionTest, GeometricRunCountsMatchBinomial) {
  // A 24-edge p=0.08 run is squarely in geometric territory. The number of
  // live edges per draw must follow Binomial(24, 0.08): chi-square over
  // cells {0..7, tail} (dof 8, 0.999 quantile 26.1, padded), plus per-leaf
  // inclusion frequencies at 5 sigma.
  const VertexId kFan = 24;
  const double kP = 0.08;
  const uint64_t kRounds = 120000;
  ASSERT_EQ(ProbGroupedView::ChooseRunStrategy(kP, kFan),
            ProbGroupedView::RunStrategy::kJump);
  Graph g = StarGraph(kFan, kP);
  ASSERT_TRUE(g.GroupedView().OutUsesRunWalk(0));

  ReachableSampler sampler(g, 0, nullptr, SamplerKind::kGeometricSkip);
  SampledGraph s;
  Rng rng(77);
  std::vector<uint64_t> count_hist(kFan + 1, 0);
  std::vector<uint64_t> leaf_hits(kFan, 0);
  for (uint64_t i = 0; i < kRounds; ++i) {
    sampler.Sample(rng, &s);
    ++count_hist[s.to_parent.size() - 1];  // root excluded
    for (VertexId parent : s.to_parent) {
      if (parent > 0) ++leaf_hits[parent - 1];
    }
  }

  // Binomial pmf built iteratively; cells 0..7 exact, >= 8 collapsed.
  const int kCells = 8;
  std::vector<double> pmf(kFan + 1);
  pmf[0] = std::pow(1.0 - kP, kFan);
  for (VertexId k = 0; k < kFan; ++k) {
    pmf[k + 1] =
        pmf[k] * static_cast<double>(kFan - k) / (k + 1) * (kP / (1.0 - kP));
  }
  double chi = 0;
  double tail_expected = static_cast<double>(kRounds);
  uint64_t tail_observed = kRounds;
  for (int k = 0; k < kCells; ++k) {
    const double expected = pmf[k] * static_cast<double>(kRounds);
    const double diff = static_cast<double>(count_hist[k]) - expected;
    chi += diff * diff / expected;
    tail_expected -= expected;
    tail_observed -= count_hist[k];
  }
  const double tail_diff = static_cast<double>(tail_observed) - tail_expected;
  chi += tail_diff * tail_diff / tail_expected;
  EXPECT_LT(chi, 30.0);

  const double sigma = std::sqrt(kP * (1.0 - kP) / kRounds);
  for (VertexId k = 0; k < kFan; ++k) {
    EXPECT_NEAR(static_cast<double>(leaf_hits[k]) / kRounds, kP, 5.0 * sigma)
        << "leaf " << k;
  }
}

TEST(SkipSamplingDistributionTest, MixedRunGadgetMarginals) {
  // One vertex whose runs take all three strategies in one walk: 24 edges
  // at p=0.08 jump (2.92 expected draws, under the block gate), 64 at
  // p=0.25 block-fill (17 expected draws), 3 at p=0.6 coin. The runs are
  // interleaved in the original order, so the grouped permutation is
  // exercised too; every edge's inclusion frequency must match its own
  // probability under both kinds.
  using Strategy = ProbGroupedView::RunStrategy;
  GraphBuilder builder;
  std::vector<double> probs;
  for (VertexId k = 0; k < 91; ++k) {  // 3 at 0.6, 24 at 0.08, 64 at 0.25
    const double p = k % 30 == 4 ? 0.6 : (k % 15 < 4 && k < 90 ? 0.08 : 0.25);
    probs.push_back(p);
    builder.AddEdge(0, k + 1, p);
  }
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  const Graph& g = *built;
  ASSERT_TRUE(g.GroupedView().OutUsesRunWalk(0));
  ASSERT_EQ(ProbGroupedView::ChooseRunStrategy(0.08, 24), Strategy::kJump);
  ASSERT_EQ(ProbGroupedView::ChooseRunStrategy(0.25, 64), Strategy::kBlock);
  ASSERT_EQ(ProbGroupedView::ChooseRunStrategy(0.6, 3), Strategy::kCoins);

  const uint64_t kRounds = 60000;
  for (SamplerKind kind :
       {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
    ReachableSampler sampler(g, 0, nullptr, kind);
    SampledGraph s;
    Rng rng(101);
    std::vector<uint64_t> hits(91, 0);
    for (uint64_t i = 0; i < kRounds; ++i) {
      sampler.Sample(rng, &s);
      for (VertexId parent : s.to_parent) {
        if (parent > 0) ++hits[parent - 1];
      }
    }
    for (VertexId k = 0; k < 91; ++k) {
      const double sigma =
          std::sqrt(probs[k] * (1.0 - probs[k]) / kRounds);
      EXPECT_NEAR(static_cast<double>(hits[k]) / kRounds, probs[k],
                  5.0 * sigma)
          << "edge " << k << " kind=" << static_cast<int>(kind);
    }
  }
}

TEST(SkipSamplingDistributionTest, TriggeringGroupedMembershipFrequencies) {
  // IcTriggeringModel's grouped draw must include each in-neighbor index
  // with its edge probability, like the per-edge draw — compare both
  // per-index frequencies against the exact values.
  Graph g = WithWeightedCascade(GenerateErdosRenyi(40, 400, 23));
  const ProbGroupedView& view = g.GroupedView();
  IcTriggeringModel model;
  const VertexId v = 1;
  const auto din = static_cast<uint32_t>(g.InDegree(v));
  ASSERT_GT(din, 3u);
  const int kRounds = 60000;

  std::vector<int> grouped_hits(din, 0), per_edge_hits(din, 0);
  std::vector<uint32_t> set;
  Rng rng_grouped(31), rng_per_edge(33);
  for (int i = 0; i < kRounds; ++i) {
    set.clear();
    model.SampleTriggerSetGrouped(g, view, v, rng_grouped, &set);
    for (uint32_t idx : set) ++grouped_hits[idx];
    set.clear();
    model.SampleTriggerSet(g, v, rng_per_edge, &set);
    for (uint32_t idx : set) ++per_edge_hits[idx];
  }
  auto probs = g.InProbabilities(v);
  for (uint32_t k = 0; k < din; ++k) {
    const double tolerance = 4.0 * std::sqrt(probs[k] / kRounds) + 1e-3;
    EXPECT_NEAR(static_cast<double>(grouped_hits[k]) / kRounds, probs[k],
                tolerance);
    EXPECT_NEAR(static_cast<double>(per_edge_hits[k]) / kRounds, probs[k],
                tolerance);
  }
}

// ------------------------------------------ determinism under kGeometricSkip

SpreadDecreaseOptions SkipOptions(uint32_t theta, uint64_t seed,
                                  SampleReuse reuse, uint32_t threads = 1) {
  SpreadDecreaseOptions opts;
  opts.theta = theta;
  opts.seed = seed;
  opts.threads = threads;
  opts.sample_reuse = reuse;
  opts.sampler_kind = SamplerKind::kGeometricSkip;
  return opts;
}

TEST(SkipSamplingDeterminismTest, GreedyBlockersInvariantAcrossThreadCounts) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(250, 3, 7));
  for (SamplerKind kind :
       {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
    GreedyOptions ag;
    ag.budget = 5;
    ag.theta = 700;
    ag.seed = 41;
    ag.sample_reuse = SampleReuse::kPrune;
    ag.sampler_kind = kind;
    GreedyOptions gr;
    gr.budget = 4;
    gr.theta = 500;
    gr.seed = 43;
    gr.sample_reuse = SampleReuse::kResample;
    gr.sampler_kind = kind;

    ag.threads = gr.threads = 1;
    const BlockerSelection ag_ref = AdvancedGreedy(g, 0, ag);
    const BlockerSelection gr_ref = GreedyReplace(g, 0, gr);
    ASSERT_FALSE(ag_ref.blockers.empty());
    ASSERT_FALSE(gr_ref.blockers.empty());

    for (uint32_t threads : {2u, 8u}) {
      ag.threads = gr.threads = threads;
      EXPECT_EQ(AdvancedGreedy(g, 0, ag).blockers, ag_ref.blockers)
          << "AG threads=" << threads << " kind=" << static_cast<int>(kind);
      EXPECT_EQ(GreedyReplace(g, 0, gr).blockers, gr_ref.blockers)
          << "GR threads=" << threads << " kind=" << static_cast<int>(kind);
    }
  }
}

TEST(SkipSamplingDeterminismTest, KindsVisitDifferentButValidWorlds) {
  // The two kinds consume randomness differently, so for one seed they draw
  // different worlds — both i.i.d. Definition-4 samples. Sanity: same seed
  // and kind reproduces itself exactly. The WC graph's short runs jump or
  // coin; constant p=0.25 over a dense ER graph makes each row one ~60-edge
  // run expecting ~16 draws, so it block-fills.
  for (const Graph& g :
       {WithWeightedCascade(GenerateBarabasiAlbert(200, 3, 9)),
        WithConstantProbability(GenerateErdosRenyi(200, 12000, 9), 0.25)}) {
    SpreadDecreaseOptions skip = SkipOptions(4000, 3, SampleReuse::kPrune);
    SpreadDecreaseOptions coin = skip;
    coin.sampler_kind = SamplerKind::kPerEdgeCoin;

    SpreadDecreaseResult a = ComputeSpreadDecrease(g, 0, skip);
    SpreadDecreaseResult b = ComputeSpreadDecrease(g, 0, skip);
    SpreadDecreaseResult c = ComputeSpreadDecrease(g, 0, coin);
    EXPECT_EQ(a.delta, b.delta);
    EXPECT_DOUBLE_EQ(a.expected_spread, b.expected_spread);
    EXPECT_NE(a.delta, c.delta);  // different worlds ...
    EXPECT_NEAR(a.expected_spread, c.expected_spread,
                0.05 * a.expected_spread);  // ... same distribution
  }
}

// FNV-1a over every sample region's to_parent list of a fresh θ=200 pool
// rooted at the max-out-degree vertex 0.
uint64_t PoolWorldDigest(const Graph& g) {
  SamplePool::Options options;
  options.theta = 200;
  options.seed = 2023;
  SamplePool pool(g, 0, options);
  SamplePool::Scratch scratch = pool.MakeScratch();
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t i = 0; i < options.theta; ++i) {
    pool.DeriveSample(i, &scratch);
    for (VertexId v : pool.sample(i).to_parent) {
      for (int byte = 0; byte < 4; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(SkipSamplingDeterminismTest, DefaultWorldsMatchPinnedDigests) {
  // Pins the default kind's worlds on the service's `GEN ... SCALE 1.0`
  // graphs (generator and probability seed 1). Wiki-Vote under trivalency
  // has out-runs that block-fill, so its digest pins the block walk;
  // EmailCore under WC has none, so every run there jumps or coins.
  const Graph wiki = WithTrivalency(
      MakeDataset(*FindDataset("Wiki-Vote"), 1.0, 1), 1);
  const Graph email =
      WithWeightedCascade(MakeDataset(*FindDataset("EmailCore"), 1.0, 1));
  EXPECT_EQ(PoolWorldDigest(wiki), 0xb1bbd84868ad6219ULL);
  EXPECT_EQ(PoolWorldDigest(email), 0x284d12884bdb68a1ULL);
}

// --------------------------------------------------- satellite determinism

TEST(SkipSamplingSatelliteTest, EstimateSpreadBitIdenticalAcrossThreadCounts) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(200, 3, 11));
  for (SamplerKind kind :
       {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
    MonteCarloOptions mc;
    mc.rounds = 4000;
    mc.seed = 19;
    mc.sampler_kind = kind;
    mc.threads = 1;
    const double reference = EstimateSpread(g, {0, 5}, mc);
    for (uint32_t threads : {2u, 8u}) {
      mc.threads = threads;
      EXPECT_DOUBLE_EQ(EstimateSpread(g, {0, 5}, mc), reference)
          << "threads=" << threads << " kind=" << static_cast<int>(kind);
    }
  }
}

TEST(SkipSamplingSatelliteTest,
     ActivationProbabilitiesBitIdenticalAcrossThreadCounts) {
  Graph g = WithWeightedCascade(GenerateErdosRenyi(150, 900, 13));
  MonteCarloOptions mc;
  mc.rounds = 3000;
  mc.seed = 23;
  mc.threads = 1;
  const std::vector<double> reference =
      EstimateActivationProbabilities(g, {0}, mc);
  for (uint32_t threads : {2u, 8u}) {
    mc.threads = threads;
    EXPECT_EQ(EstimateActivationProbabilities(g, {0}, mc), reference)
        << "threads=" << threads;
  }
}

TEST(SkipSamplingSatelliteTest, ParallelBetweennessMatchesSequential) {
  Graph g = GenerateErdosRenyi(120, 700, 29);
  BetweennessOptions opts;
  const std::vector<double> reference = ComputeBetweenness(g, opts);
  for (uint32_t threads : {2u, 8u}) {
    opts.threads = threads;
    const std::vector<double> parallel = ComputeBetweenness(g, opts);
    ASSERT_EQ(parallel.size(), reference.size());
    for (size_t v = 0; v < reference.size(); ++v) {
      // Association of the per-source partial sums differs, so allow ulp-
      // scale drift; blocker rankings below must still agree.
      EXPECT_NEAR(parallel[v], reference[v],
                  1e-9 * (1.0 + std::abs(reference[v])));
    }
    EXPECT_EQ(BetweennessBlockers(g, {0}, 10, opts),
              BetweennessBlockers(g, {0}, 10, BetweennessOptions{}));
  }

  // Pivot-sampled path: the pivot draw is unchanged, so any thread count
  // sees the same sources.
  BetweennessOptions pivots;
  pivots.pivots = 32;
  pivots.seed = 5;
  const std::vector<double> pivot_ref = ComputeBetweenness(g, pivots);
  pivots.threads = 4;
  const std::vector<double> pivot_par = ComputeBetweenness(g, pivots);
  for (size_t v = 0; v < pivot_ref.size(); ++v) {
    EXPECT_NEAR(pivot_par[v], pivot_ref[v],
                1e-9 * (1.0 + std::abs(pivot_ref[v])));
  }
}

// ------------------------------------------------- allocation-free sampling

TEST(SkipSamplingAllocationTest, SteadyStateSamplingDoesNotAllocate) {
  // Single-run stars: 60 edges at p=0.05 walk the jump branch, 64 at
  // p=0.25 the block-fill branch. After reserving the output buffers at
  // their maximum size, repeated draws must perform zero heap allocations.
  using Strategy = ProbGroupedView::RunStrategy;
  ASSERT_EQ(ProbGroupedView::ChooseRunStrategy(0.05, 60), Strategy::kJump);
  ASSERT_EQ(ProbGroupedView::ChooseRunStrategy(0.25, 64), Strategy::kBlock);
  for (const Graph& g : {StarGraph(60, 0.05), StarGraph(64, 0.25)}) {
    ASSERT_TRUE(g.GroupedView().OutUsesRunWalk(0));
    ReachableSampler sampler(g, 0, nullptr, SamplerKind::kGeometricSkip);
    SampledGraph s;
    s.offsets.reserve(72);
    s.targets.reserve(72);
    s.to_parent.reserve(72);
    Rng rng(3);
    sampler.Sample(rng, &s);  // warm-up

    const uint64_t before = g_allocation_count.load();
    for (int i = 0; i < 500; ++i) sampler.Sample(rng, &s);
    const uint64_t after = g_allocation_count.load();
    EXPECT_EQ(after - before, 0u)
        << "skip-kernel sampling allocated, fan=" << g.OutDegree(0);
  }
}

TEST(SkipSamplingAllocationTest, EngineSteadyStateRoundsDoNotAllocate) {
  // The PR 2 steady-state invariant re-proven under kGeometricSkip: after
  // the warm-up Block, scoring rounds are allocation-free.
  Graph g = PathGraph(60, 1.0);
  SpreadDecreaseEngine engine(g, 0,
                              SkipOptions(64, 9, SampleReuse::kPrune));
  ASSERT_TRUE(engine.Build());
  ASSERT_TRUE(engine.Block(50));  // warm-up: grows every reusable buffer

  const uint64_t before = g_allocation_count.load();
  bool ok = true;
  for (VertexId v : {VertexId{40}, VertexId{30}, VertexId{20}}) {
    ok = ok && engine.BestUnblocked() != kInvalidVertex;
    ok = ok && engine.Block(v);
  }
  const uint64_t after = g_allocation_count.load();
  EXPECT_TRUE(ok);
  EXPECT_EQ(after - before, 0u)
      << "steady-state Block/BestUnblocked rounds allocated";
}

// --------------------------------------------------- cross-kind agreement

TEST(SkipSamplingAgreementTest, BlockedSpreadWithinTwoPercentAcrossKinds) {
  // End-to-end: AdvancedGreedy under each kind on a WC generator graph;
  // the blocked spreads (evaluated with a common, independent MC stream)
  // must agree within 2%.
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(400, 4, 20230227));
  EvaluationOptions eval;
  eval.mc_rounds = 60000;
  eval.seed = 4242;

  double spread[2] = {0, 0};
  int slot = 0;
  for (SamplerKind kind :
       {SamplerKind::kPerEdgeCoin, SamplerKind::kGeometricSkip}) {
    GreedyOptions ag;
    ag.budget = 8;
    ag.theta = 3000;
    ag.seed = 51;
    ag.sample_reuse = SampleReuse::kPrune;
    ag.sampler_kind = kind;
    BlockerSelection sel = AdvancedGreedy(g, 0, ag);
    ASSERT_EQ(sel.blockers.size(), 8u);
    spread[slot++] = EvaluateSpread(g, {0}, sel.blockers, eval);
  }
  EXPECT_NEAR(spread[0], spread[1], 0.02 * spread[0]);
}

TEST(SkipSamplingAgreementTest, RrSetAndMcEstimatorsAgreeAcrossKinds) {
  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(300, 3, 9));
  const std::vector<VertexId> seeds = {0, 5, 10};

  MonteCarloOptions mc;
  mc.rounds = 40000;
  mc.seed = 13;
  mc.sampler_kind = SamplerKind::kPerEdgeCoin;
  const double mc_coin = EstimateSpread(g, seeds, mc);
  mc.sampler_kind = SamplerKind::kGeometricSkip;
  const double mc_skip = EstimateSpread(g, seeds, mc);
  EXPECT_NEAR(mc_skip, mc_coin, 0.02 * mc_coin + 0.2);

  const double rr_coin = EstimateSpreadViaRrSets(g, seeds, 150000, 11,
                                                 SamplerKind::kPerEdgeCoin);
  const double rr_skip = EstimateSpreadViaRrSets(g, seeds, 150000, 11,
                                                 SamplerKind::kGeometricSkip);
  EXPECT_NEAR(rr_skip, rr_coin, 0.03 * rr_coin + 0.3);
  EXPECT_NEAR(rr_skip, mc_skip, 0.05 * mc_skip + 0.3);
}

}  // namespace
}  // namespace vblock
