// Tests for the batched geometric-draw kernel: BatchLog accuracy against
// libm, scalar ≡ AVX2 bit-exactness of the transform on shared input bits,
// exact RNG-consumption accounting of FillGeometricSkips, the per-run
// strategy choice of the cost model (block fill, scalar jump, or coins),
// chi-square / marginal distribution checks for kGeometricSkip on every
// strategy branch, and end-to-end ISA invariance (forcing the scalar
// fallback reproduces the AVX2 worlds bit-for-bit).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/spread_decrease.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/prob_grouped_view.h"
#include "prob/probability_models.h"
#include "sampling/batched_draw.h"
#include "sampling/reachable_sampler.h"

namespace vblock {
namespace {

// Restores the process-wide draw ISA on scope exit so a failing test cannot
// leak a forced implementation into later tests.
struct IsaGuard {
  DrawIsa prev = ActiveDrawIsa();
  ~IsaGuard() { SetDrawIsa(prev); }
};

// Star gadget: root 0 with `fan` leaves, every edge probability p.
Graph StarGraph(VertexId fan, double p) {
  GraphBuilder builder;
  for (VertexId k = 0; k < fan; ++k) builder.AddEdge(0, k + 1, p);
  auto g = builder.Build();
  VBLOCK_CHECK(g.ok());
  return std::move(*g);
}

// --------------------------------------------------------------- BatchLog

TEST(BatchLogTest, MatchesLibmAcrossTheUniformDomain) {
  // The transform only ever evaluates BatchLog on ((x >> 12) | 1) · 2⁻⁵²,
  // i.e. odd multiples of 2⁻⁵² in (0, 1). Sweep random points plus both
  // extremes. Worst case is the √½ mantissa boundary where the truncated
  // atanh series peaks (|s| ≈ 0.1716, truncation 2s¹⁵/15 ≈ 4.5e-13
  // absolute, relative ≈ 1.3e-12); asserted with ~3× headroom.
  auto check = [](double u) {
    const double expected = std::log(u);
    const double tolerance = 4e-12 * std::abs(expected) + 1e-15;
    EXPECT_NEAR(BatchLog(u), expected, tolerance) << "u=" << u;
  };
  check(0x1.0p-52);                    // smallest transform input
  check(1.0 - 0x1.0p-52);              // largest
  check(0.5 - 0x1.0p-53);              // just below a binade boundary
  check(0.5);                          // on it
  check(0x1.6a09e667f3bcdp-1);         // ~√½, the mantissa-split boundary
  Rng rng(123);
  for (int i = 0; i < 200000; ++i) {
    check((((rng() >> 12) | 1u)) * 0x1.0p-52);
  }
}

// --------------------------------------------------- transform bit-exactness

TEST(BatchedTransformTest, ScalarMatchesAvx2BitExactOnSharedBits) {
  if (!internal::Avx2TransformAvailable()) {
    GTEST_SKIP() << "AVX2 transform not available in this build/CPU";
  }
  Rng rng(99);
  for (double p : {0.5, 0.25, 0.08, 0.01, 1e-6}) {
    const double inv_log1m = 1.0 / std::log1p(-p);
    for (uint32_t count : {1u, 3u, 4u, 5u, 17u, 63u, 64u}) {
      uint64_t bits[kMaxDrawBlock];
      rng.NextBlock(bits, count);
      uint64_t scalar[kMaxDrawBlock];
      uint64_t avx2[kMaxDrawBlock];
      internal::TransformGeometricScalar(bits, inv_log1m, count, scalar);
      internal::TransformGeometricAvx2(bits, inv_log1m, count, avx2);
      for (uint32_t i = 0; i < count; ++i) {
        ASSERT_EQ(scalar[i], avx2[i])
            << "p=" << p << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(BatchedTransformTest, FillMatchesScalarTransformUnderAnyActiveIsa) {
  // FillGeometricSkips = NextBlock + dispatched transform. Whatever ISA is
  // active, the result must equal the scalar reference transform over the
  // same raw bits — this is the determinism contract end to end.
  const double p = 0.1;
  const double inv_log1m = 1.0 / std::log1p(-p);
  Rng fill_rng(7), bits_rng(7);
  uint64_t filled[kMaxDrawBlock];
  FillGeometricSkips(fill_rng, inv_log1m, 37, filled);
  uint64_t bits[kMaxDrawBlock];
  bits_rng.NextBlock(bits, 37);
  uint64_t reference[kMaxDrawBlock];
  internal::TransformGeometricScalar(bits, inv_log1m, 37, reference);
  for (uint32_t i = 0; i < 37; ++i) EXPECT_EQ(filled[i], reference[i]);
}

TEST(BatchedTransformTest, FillConsumesExactlyCountRawOutputs) {
  const double inv_log1m = 1.0 / std::log1p(-0.3);
  for (uint32_t count : {1u, 4u, 29u, 64u}) {
    Rng a(42), b(42);
    uint64_t out[kMaxDrawBlock];
    FillGeometricSkips(a, inv_log1m, count, out);
    for (uint32_t i = 0; i < count; ++i) (void)b();
    EXPECT_EQ(a(), b()) << "count=" << count;
  }
}

TEST(BatchedTransformTest, SetDrawIsaForcesAndRestores) {
  IsaGuard guard;
  ASSERT_TRUE(SetDrawIsa(DrawIsa::kScalar));
  EXPECT_EQ(ActiveDrawIsa(), DrawIsa::kScalar);
  if (internal::Avx2TransformAvailable()) {
    ASSERT_TRUE(SetDrawIsa(DrawIsa::kAvx2));
    EXPECT_EQ(ActiveDrawIsa(), DrawIsa::kAvx2);
  } else {
    EXPECT_FALSE(SetDrawIsa(DrawIsa::kAvx2));
    EXPECT_EQ(ActiveDrawIsa(), DrawIsa::kScalar);
  }
}

// ------------------------------------------------------------ distribution

TEST(FillGeometricSkipsTest, MatchesGeometricMoments) {
  // Same moment check NextGeometric passes: E[skip] = (1-p)/p within 2%.
  for (double p : {0.5, 0.1, 0.01}) {
    const double inv_log1m = 1.0 / std::log1p(-p);
    Rng rng(7);
    double total = 0;
    const int kBlocks = 200000 / kMaxDrawBlock;
    uint64_t out[kMaxDrawBlock];
    for (int i = 0; i < kBlocks; ++i) {
      FillGeometricSkips(rng, inv_log1m, kMaxDrawBlock, out);
      for (uint32_t j = 0; j < kMaxDrawBlock; ++j) {
        total += static_cast<double>(out[j]);
      }
    }
    const double mean = total / (kBlocks * kMaxDrawBlock);
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(mean, expected, 0.02 * expected + 0.01) << "p=" << p;
  }
}

TEST(FillGeometricSkipsTest, SaturatesInsteadOfOverflowing) {
  const double p = 1e-300;
  const double inv_log1m = 1.0 / std::log1p(-p);
  Rng rng(9);
  uint64_t out[kMaxDrawBlock];
  FillGeometricSkips(rng, inv_log1m, kMaxDrawBlock, out);
  for (uint32_t i = 0; i < kMaxDrawBlock; ++i) {
    // Clamped exactly to the 2^50 sentinel — far beyond any run length.
    EXPECT_EQ(out[i], uint64_t{1} << 50);
  }
}

// ------------------------------------------------------- cost-model pinning

TEST(BatchedCostModelTest, DrawBlockForRoundsUpToMultiplesOfFour) {
  using View = ProbGroupedView;
  EXPECT_EQ(View::DrawBlockFor(0.08, 24), 4u);   // E = 2.92
  EXPECT_EQ(View::DrawBlockFor(0.6, 3), 4u);     // E = 2.8
  EXPECT_EQ(View::DrawBlockFor(0.25, 64), 20u);  // E = 17
  EXPECT_EQ(View::DrawBlockFor(0.5, 256), 64u);  // E = 129, clamped
  EXPECT_EQ(View::DrawBlockFor(0.2, 400), 64u);  // E = 81, clamped
  for (double p : {0.01, 0.1, 0.3, 0.7, 0.99}) {
    for (uint32_t len : {1u, 5u, 24u, 64u, 400u}) {
      const uint32_t block = View::DrawBlockFor(p, len);
      EXPECT_EQ(block % 4, 0u) << "p=" << p << " len=" << len;
      EXPECT_GE(block, 4u);
      EXPECT_LE(block, kMaxDrawBlock);
    }
  }
}

TEST(BatchedCostModelTest, PerKernelCrossoversDiverge) {
  using View = ProbGroupedView;
  using Strategy = View::RunStrategy;
  // A short dense run is coins: neither kernel beats 3 coins.
  EXPECT_EQ(View::ChooseRunStrategy(0.6, 3), Strategy::kCoins);

  // A long sparse run clears the block throughput arithmetic (one 4-draw
  // fill, 10 coins < 24), but its 2.92 expected draws sit under the
  // kMinExpectedDrawsBatched = 8 amortization gate: one tiny fill would
  // put the whole block transform's latency on the walk's critical path,
  // so the run jumps instead. WC in-runs expect exactly 2 draws.
  EXPECT_LT(View::RunCost(0.08, 24, Strategy::kBlock), 24.0);
  EXPECT_EQ(View::ChooseRunStrategy(0.08, 24), Strategy::kJump);
  EXPECT_EQ(View::ChooseRunStrategy(1.0 / 50.0, 50), Strategy::kJump);  // E=2
  // Just above the gate the throughput arithmetic takes over again.
  EXPECT_EQ(View::ChooseRunStrategy(0.25, 40), Strategy::kBlock);  // E = 11

  // The crossovers diverge: L=64 at p=0.25 expects 17 live edges. Jumps
  // cost 4.5 coins each (17·4.5 = 76.5 > 64) while block draws cost 2.0
  // (one 20-draw fill: 20·2 + 2 = 42 < 64), so only the block kernel
  // beats coins here.
  EXPECT_GE(View::RunCost(0.25, 64, Strategy::kJump), 64.0);
  EXPECT_EQ(View::ChooseRunStrategy(0.25, 64), Strategy::kBlock);

  // The other way round: short runs cannot amortize a block fill (every
  // fill costs at least 4·2 + 2 = 10 coins, exactly the length here and
  // NOT strictly less), but the jump kernel wins, so WC-style din=10
  // vertices jump.
  EXPECT_GE(View::RunCost(0.1, 10, Strategy::kBlock), 10.0);
  EXPECT_EQ(View::ChooseRunStrategy(0.1, 10), Strategy::kJump);

  // Jump boundary at exactly cost == length: (1 + 9·(1/9))·4.5 = 9 is NOT
  // < 9 — the WC din=9 run stays on coins.
  EXPECT_EQ(View::ChooseRunStrategy(1.0 / 9.0, 9), Strategy::kCoins);

  // Multi-fill territory: E = 81 > 64-draw block. 81/64 fills at 130 coins
  // each is still far below scanning 400 edges...
  EXPECT_EQ(View::ChooseRunStrategy(0.2, 400), Strategy::kBlock);
  // ...but at p=0.5 the expected 129 draws over two fills (262 coins)
  // exceed the 256-edge scan, and so do 129 jumps.
  EXPECT_EQ(View::ChooseRunStrategy(0.5, 256), Strategy::kCoins);

  // Degenerate runs draw no randomness at all.
  EXPECT_EQ(View::ChooseRunStrategy(0.0, 100), Strategy::kCoins);
  EXPECT_EQ(View::ChooseRunStrategy(1.0, 100), Strategy::kCoins);
}

TEST(BatchedCostModelTest, PerVertexDecisionsFollowTheRunCrossovers) {
  // Single-run stars inherit their run's strategy (plus run overhead), and
  // only block runs carry a block size.
  using Strategy = ProbGroupedView::RunStrategy;
  struct Case {
    VertexId fan;
    double p;
    bool walks;
    Strategy strategy;
    uint16_t block;
  };
  for (const Case& c : {Case{64, 0.25, true, Strategy::kBlock, 20},
                        Case{24, 0.08, true, Strategy::kJump, 0},
                        Case{6, 0.35, false, Strategy::kCoins, 0}}) {
    Graph g = StarGraph(c.fan, c.p);
    const ProbGroupedView& view = g.GroupedView();
    EXPECT_EQ(view.OutUsesRunWalk(0), c.walks) << "fan=" << c.fan;
    ASSERT_EQ(view.OutRuns(0).size(), 1u);
    EXPECT_EQ(view.OutRuns(0)[0].strategy, c.strategy) << "fan=" << c.fan;
    EXPECT_EQ(view.OutRuns(0)[0].block, c.block) << "fan=" << c.fan;
  }
}

// ------------------------------------ kGeometricSkip strategy distributions

// Shared harness: samples the star root under kGeometricSkip and checks the
// live-edge count histogram against Binomial(fan, p) (head/tail-collapsed
// chi-square) plus every leaf's inclusion frequency at 5 sigma.
void CheckStarBinomial(const Graph& g, VertexId fan, double p,
                       uint64_t rounds, int cell_lo, int cell_hi,
                       double chi_bound, uint64_t seed) {
  ReachableSampler sampler(g, 0, nullptr, SamplerKind::kGeometricSkip);
  SampledGraph s;
  Rng rng(seed);
  std::vector<uint64_t> count_hist(fan + 1, 0);
  std::vector<uint64_t> leaf_hits(fan, 0);
  for (uint64_t i = 0; i < rounds; ++i) {
    sampler.Sample(rng, &s);
    ++count_hist[s.to_parent.size() - 1];  // root excluded
    for (VertexId parent : s.to_parent) {
      if (parent > 0) ++leaf_hits[parent - 1];
    }
  }

  // Binomial pmf built iteratively; cells below cell_lo and above cell_hi
  // collapsed into head/tail cells.
  std::vector<double> pmf(fan + 1);
  pmf[0] = std::pow(1.0 - p, fan);
  for (VertexId k = 0; k < fan; ++k) {
    pmf[k + 1] =
        pmf[k] * static_cast<double>(fan - k) / (k + 1) * (p / (1.0 - p));
  }
  double chi = 0;
  double head_expected = 0, tail_expected = 0;
  uint64_t head_observed = 0, tail_observed = 0;
  for (VertexId k = 0; k <= fan; ++k) {
    const double expected = pmf[k] * static_cast<double>(rounds);
    if (static_cast<int>(k) < cell_lo) {
      head_expected += expected;
      head_observed += count_hist[k];
    } else if (static_cast<int>(k) > cell_hi) {
      tail_expected += expected;
      tail_observed += count_hist[k];
    } else {
      const double diff = static_cast<double>(count_hist[k]) - expected;
      chi += diff * diff / expected;
    }
  }
  if (head_expected > 0) {
    const double diff = static_cast<double>(head_observed) - head_expected;
    chi += diff * diff / head_expected;
  }
  const double tail_diff = static_cast<double>(tail_observed) - tail_expected;
  chi += tail_diff * tail_diff / tail_expected;
  EXPECT_LT(chi, chi_bound);

  const double sigma = std::sqrt(p * (1.0 - p) / static_cast<double>(rounds));
  for (VertexId k = 0; k < fan; ++k) {
    EXPECT_NEAR(static_cast<double>(leaf_hits[k]) / rounds, p, 5.0 * sigma)
        << "leaf " << k;
  }
}

TEST(BatchedSkipDistributionTest, SingleFillJumpBranchMatchesBinomial) {
  // fan=40 / p=0.25 expects 11 draws — above the 8-draw gate, within one
  // 12-draw fill, so every sample is exactly one block fill. Cells
  // {head, 4..17, tail}: dof 15, 0.999 quantile 37.7, padded.
  Graph g = StarGraph(40, 0.25);
  ASSERT_TRUE(g.GroupedView().OutUsesRunWalk(0));
  ASSERT_EQ(g.GroupedView().OutRuns(0)[0].strategy,
            ProbGroupedView::RunStrategy::kBlock);
  ASSERT_EQ(g.GroupedView().OutRuns(0)[0].block, 12u);
  CheckStarBinomial(g, 40, 0.25, 120000, 4, 17, 42.0, 77);
}

TEST(BatchedSkipDistributionTest, GatedRunFallsBackToScalarJumpBranch) {
  // The WC-RR in-run shape: fan=50 / p=1/50 expects 2 draws — UNDER the
  // 8-draw gate although one block fill (10 coins) would beat the 50-edge
  // scan, so this run walks by scalar geometric jumps instead of block
  // fills. Cells {0..4, tail}: dof 5, 0.999 quantile 20.5, padded.
  Graph g = StarGraph(50, 1.0 / 50.0);
  ASSERT_TRUE(g.GroupedView().OutUsesRunWalk(0));
  ASSERT_LT(ProbGroupedView::RunCost(1.0 / 50.0, 50,
                                     ProbGroupedView::RunStrategy::kBlock),
            50.0);
  ASSERT_EQ(g.GroupedView().OutRuns(0)[0].strategy,
            ProbGroupedView::RunStrategy::kJump);
  CheckStarBinomial(g, 50, 1.0 / 50.0, 120000, 0, 4, 24.0, 77);
}

TEST(BatchedSkipDistributionTest, DivergentBranchMatchesBinomial) {
  // fan=64 / p=0.25: a run scalar jumps would leave on coins (pinned in
  // the cost-model test) — exactly the case block fills exist for. Cells
  // {head, 10..22, tail}: dof 14, 0.999 quantile 36.1, padded.
  Graph g = StarGraph(64, 0.25);
  ASSERT_TRUE(g.GroupedView().OutUsesRunWalk(0));
  ASSERT_EQ(g.GroupedView().OutRuns(0)[0].strategy,
            ProbGroupedView::RunStrategy::kBlock);
  CheckStarBinomial(g, 64, 0.25, 60000, 10, 22, 40.0, 2025);
}

TEST(BatchedSkipDistributionTest, MultiFillJumpBranchMatchesBinomial) {
  // fan=400 / p=0.2 expects 81 live edges — beyond one kMaxDrawBlock=64
  // fill, so every sample loops the block-fill walk at least twice. Cells
  // {head, 66..96, tail}: dof 32, 0.999 quantile 62.5, padded.
  Graph g = StarGraph(400, 0.2);
  ASSERT_TRUE(g.GroupedView().OutUsesRunWalk(0));
  ASSERT_EQ(g.GroupedView().OutRuns(0)[0].strategy,
            ProbGroupedView::RunStrategy::kBlock);
  CheckStarBinomial(g, 400, 0.2, 30000, 66, 96, 66.0, 31337);
}

// ------------------------------------------------------------- determinism

TEST(BatchedSkipDeterminismTest, ScalarFallbackReproducesAvx2Worlds) {
  // The whole point of the shared BatchLog: forcing the scalar transform
  // must leave every sampled world — and therefore every score — bit-
  // identical to the AVX2 path.
  if (!internal::Avx2TransformAvailable()) {
    GTEST_SKIP() << "AVX2 transform not available in this build/CPU";
  }
  // Constant p=0.25 over a dense ER graph: every row is one run that
  // block-fills, so the transform decides every world.
  Graph g = WithConstantProbability(GenerateErdosRenyi(200, 12000, 9), 0.25);
  SpreadDecreaseOptions opts;
  opts.theta = 2000;
  opts.seed = 17;
  opts.sample_reuse = SampleReuse::kPrune;

  IsaGuard guard;
  ASSERT_TRUE(SetDrawIsa(DrawIsa::kAvx2));
  SpreadDecreaseResult vector_result = ComputeSpreadDecrease(g, 0, opts);
  ASSERT_TRUE(SetDrawIsa(DrawIsa::kScalar));
  SpreadDecreaseResult scalar_result = ComputeSpreadDecrease(g, 0, opts);

  EXPECT_EQ(vector_result.delta, scalar_result.delta);
  EXPECT_DOUBLE_EQ(vector_result.expected_spread,
                   scalar_result.expected_spread);
}

}  // namespace
}  // namespace vblock
