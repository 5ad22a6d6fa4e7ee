// Oracle tier: the sampled engine held to exact world enumeration.
//
// The other suites mostly prove that code paths agree with each other
// (warm ≡ cold, put-back ≡ re-derive, ...); a bug every path shares passes
// them all. These tests compare the engine's Δ and spread, in the states a
// greedy run walks through, with ComputeSpreadDecreaseExact under the
// engine's own mask, within the paper's Theorem-5 band
// (core/sample_size.h). Instances are small enough to enumerate; seeds are
// fixed, so each test is deterministic and the stated false-failure bound
// is the chance that a correct engine's fixed draw lands outside the band.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/sampler_kind.h"
#include "core/sample_size.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "prob/probability_models.h"
#include "sampling/world_enumerator.h"

namespace vblock {
namespace {

constexpr SampleReuse kReuseModes[] = {SampleReuse::kPrune,
                                       SampleReuse::kResample};
constexpr SamplerKind kSamplerKinds[] = {SamplerKind::kPerEdgeCoin,
                                         SamplerKind::kGeometricSkip};

std::string ConfigName(SampleReuse reuse, SamplerKind kind) {
  return std::string(reuse == SampleReuse::kPrune ? "prune" : "resample") +
         "/" + (kind == SamplerKind::kPerEdgeCoin ? "coin" : "skip");
}

SpreadDecreaseOptions OracleOptions(uint32_t theta, SampleReuse reuse,
                                    SamplerKind kind) {
  SpreadDecreaseOptions opts;
  opts.theta = theta;
  opts.seed = 17;
  opts.sample_reuse = reuse;
  opts.sampler_kind = kind;
  return opts;
}

// r → x (p 0.5), x → v (1), x → a (1). Blocking v leaves x and a both
// reached exactly when r → x is live: spread 2, Δ(x) 1.
TEST(OracleTest, BlockKeepsTheSpreadOfTheMinimalGraph) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(1, 3, 1.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  VertexMask mask(4);
  mask.Set(2);
  auto exact = ComputeSpreadDecreaseExact(*g, 0, &mask);
  ASSERT_TRUE(exact.ok());
  ASSERT_DOUBLE_EQ(exact->expected_spread, 2.0);
  ASSERT_DOUBLE_EQ(exact->delta[1], 1.0);
  for (SampleReuse reuse : kReuseModes) {
    for (SamplerKind kind : kSamplerKinds) {
      SCOPED_TRACE(ConfigName(reuse, kind));
      SpreadDecreaseEngine engine(*g, 0, OracleOptions(100000, reuse, kind));
      ASSERT_TRUE(engine.Build());
      ASSERT_TRUE(engine.Block(2));
      const SpreadDecreaseResult got = engine.Scores();
      EXPECT_NEAR(got.expected_spread, 2.0, 0.02);
      EXPECT_NEAR(got.delta[1], 1.0, 0.02);
    }
  }
}

// One enumerable instance and the blockers the state walk uses: each is
// the vertex of largest exact Δ in the state it is blocked from.
struct OracleInstance {
  Graph graph;
  VertexId b1, b2, b3;
};

VertexId BestExact(const Graph& g, const VertexMask& mask) {
  auto exact = ComputeSpreadDecreaseExact(g, 0, &mask);
  VBLOCK_CHECK(exact.ok());
  VertexId best = kInvalidVertex;
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (exact->delta[v] > 0 &&
        (best == kInvalidVertex || exact->delta[v] > exact->delta[best])) {
      best = v;
    }
  }
  return best;
}

// Random ER instances, p uniform in [0.1, 0.9], with 10–14 uncertain edges
// in the root's region and three distinct blockers to walk.
std::vector<OracleInstance> OracleInstances(size_t count) {
  std::vector<OracleInstance> out;
  for (uint64_t seed = 1; out.size() < count; ++seed) {
    const auto n = static_cast<VertexId>(10 + seed % 9);
    Graph g = WithUniformProbability(
        GenerateErdosRenyi(n, static_cast<EdgeId>(n + n / 2), seed), 0.1,
        0.9, seed);
    const int k = WorldEnumerator(g, VertexId{0}).NumUncertainEdges();
    if (k < 10 || k > 14) continue;
    VertexMask mask(n);
    const VertexId b1 = BestExact(g, mask);
    if (b1 == kInvalidVertex) continue;
    mask.Set(b1);
    const VertexId b2 = BestExact(g, mask);
    if (b2 == kInvalidVertex) continue;
    mask.Clear(b1);
    mask.Set(b2);
    const VertexId b3 = BestExact(g, mask);
    if (b3 == kInvalidVertex) continue;
    out.push_back({std::move(g), b1, b2, b3});
  }
  return out;
}

// Every state of the walk fresh → Block(b1) → Block(b2) → Unblock(b1) →
// Block(b3) → Restore, under both reuse modes and both sampler kinds: the
// spread and every vertex's Δ must lie within ε·OPT of the exact value,
// with ε = GuaranteedEpsilon(n, θ, l, OPT); an exact Δ of 0 must be
// sampled as exactly 0. Theorem 5 bounds each estimate's failure
// probability by n^−l, and l is chosen so that n^−l · (number of compared
// estimates) ≤ 10⁻³: by the union bound, a correct engine fails this test
// with probability at most 10⁻³. The old kResample Block (re-draw the
// dirty samples with fresh coins, keep the rest) left the band on instance
// 5 after Block(b1), by up to 1.9× under both sampler kinds.
TEST(OracleTest, EngineStatesMatchEnumerationWithinTheorem5Band) {
  constexpr uint32_t kTheta = 20000;
  constexpr size_t kInstances = 8;
  constexpr int kStates = 6;
  constexpr double kFalseFailure = 1e-3;
  const std::vector<OracleInstance> instances = OracleInstances(kInstances);

  uint64_t estimates = 0;  // spread + Δ of every vertex, per state
  for (const OracleInstance& inst : instances) {
    estimates += uint64_t{kStates} * std::size(kReuseModes) *
                 std::size(kSamplerKinds) * (inst.graph.NumVertices() + 1);
  }

  int compared = 0;
  for (size_t index = 0; index < instances.size(); ++index) {
    const OracleInstance& inst = instances[index];
    const Graph& g = inst.graph;
    const VertexId n = g.NumVertices();
    // n^−l = kFalseFailure / estimates.
    const double l =
        std::log(static_cast<double>(estimates) / kFalseFailure) /
        std::log(static_cast<double>(n));
    auto expect_in_band = [&](double got, double want, const char* what,
                              VertexId v) {
      ++compared;
      if (want == 0) {
        EXPECT_EQ(got, 0.0) << what << " v=" << v;
        return;
      }
      const double band = GuaranteedEpsilon(n, kTheta, l, want) * want;
      EXPECT_LE(std::abs(got - want), band)
          << what << " v=" << v << " exact=" << want;
    };
    // The exact values of the walk's states, shared by every config.
    std::vector<SpreadDecreaseResult> truth;
    VertexMask mask(n);
    auto enumerate = [&] {
      auto exact = ComputeSpreadDecreaseExact(g, 0, &mask);
      VBLOCK_CHECK(exact.ok());
      truth.push_back(std::move(*exact));
    };
    enumerate();  // fresh
    mask.Set(inst.b1);
    enumerate();
    mask.Set(inst.b2);
    enumerate();
    mask.Clear(inst.b1);
    enumerate();
    mask.Set(inst.b3);
    enumerate();
    truth.push_back(truth[0]);  // restored
    const char* const kStateNames[kStates] = {
        "fresh", "block b1", "block b2", "unblock b1", "block b3", "restore"};

    for (SampleReuse reuse : kReuseModes) {
      for (SamplerKind kind : kSamplerKinds) {
        SpreadDecreaseEngine engine(g, 0, OracleOptions(kTheta, reuse, kind));
        auto check = [&](int state) {
          SCOPED_TRACE("instance " + std::to_string(index) + " " +
                       ConfigName(reuse, kind) + " " + kStateNames[state]);
          const SpreadDecreaseResult got = engine.Scores();
          expect_in_band(got.expected_spread, truth[state].expected_spread,
                         "spread", 0);
          for (VertexId v = 0; v < n; ++v) {
            expect_in_band(got.delta[v], truth[state].delta[v], "delta", v);
          }
        };
        ASSERT_TRUE(engine.Build());
        check(0);
        ASSERT_TRUE(engine.Block(inst.b1));
        check(1);
        ASSERT_TRUE(engine.Block(inst.b2));
        check(2);
        ASSERT_TRUE(engine.Unblock(inst.b1));
        check(3);
        ASSERT_TRUE(engine.Block(inst.b3));
        check(4);
        engine.Restore();
        check(5);
      }
    }
  }
  EXPECT_EQ(static_cast<uint64_t>(compared), estimates);
}

}  // namespace
}  // namespace vblock
