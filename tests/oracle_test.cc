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

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/sampler_kind.h"
#include "core/greedy.h"
#include "core/sample_size.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/prob_grouped_view.h"
#include "graph/traversal.h"
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

// One enumerable instance and what the state walk uses. The blockers are
// each the vertex of largest exact Δ in the state it is blocked from (d:
// of the vertices the root has no edge into); g1, g2 and g3 each follow
// the graph before them by one region update.
struct OracleInstance {
  Graph graph;
  VertexId b1, b2, b3, d;
  Graph g1, g2, g3;
  VertexId c1, c3;  // blocked on g1 and on g3
};

VertexId BestExact(const Graph& g, const VertexMask& mask,
                   bool off_root = false) {
  auto exact = ComputeSpreadDecreaseExact(g, 0, &mask);
  VBLOCK_CHECK(exact.ok());
  const std::span<const VertexId> from_root = g.OutNeighbors(0);
  VertexId best = kInvalidVertex;
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (off_root &&
        std::find(from_root.begin(), from_root.end(), v) != from_root.end()) {
      continue;
    }
    if (exact->delta[v] > 0 &&
        (best == kInvalidVertex || exact->delta[v] > exact->delta[best])) {
      best = v;
    }
  }
  return best;
}

// `g` with every probability rounded to a tenth.
Graph InTenths(const Graph& g) {
  GraphBuilder b;
  b.ReserveVertices(g.NumVertices());
  for (const Edge& e : g.CollectEdges()) {
    b.AddEdge(e.source, e.target, std::round(e.probability * 10) / 10);
  }
  auto built = b.Build();
  VBLOCK_CHECK(built.ok());
  return std::move(*built);
}

// One graph update in the root's region: it deletes one edge, re-weights
// one and inserts one, each with its source reachable from the root. None
// moves the first appearance (in CSR order) of a probability value, so the
// grouped view's class table stays stable and a skip-sampler pool is
// carried across it, as the service carries it (docs/DESIGN.md §11).
// Returns the updated graph, or nullopt when `g` offers no such update.
std::optional<Graph> RegionUpdate(const Graph& g, uint64_t rng) {
  const std::vector<Edge> edges = g.CollectEdges();  // CSR order
  const std::vector<VertexId> region = ReachableFrom(g, VertexId{0});
  std::vector<uint8_t> reached(g.NumVertices(), 0);
  for (VertexId v : region) reached[v] = 1;
  std::map<double, size_t> first;
  for (size_t i = 0; i < edges.size(); ++i) {
    first.try_emplace(edges[i].probability, i);
  }
  // The class of edge 0 stays first whatever the update does, so it is
  // the one value an edge may take.
  const double p0 = edges[0].probability;
  std::vector<size_t> movable;  // no value's first appearance
  for (size_t i = 1; i < edges.size(); ++i) {
    if (reached[edges[i].source] && first[edges[i].probability] != i) {
      movable.push_back(i);
    }
  }
  std::vector<size_t> reweighable;
  for (size_t i : movable) {
    if (edges[i].probability != p0) reweighable.push_back(i);
  }
  if (reweighable.empty() || movable.size() < 2) return std::nullopt;

  GraphDelta d;
  const Edge& w = edges[reweighable[SplitMix64Next(rng) % reweighable.size()]];
  d.update_probabilities.push_back({w.source, w.target, p0});
  for (size_t tries = 0; d.delete_edges.empty() && tries < 64; ++tries) {
    const Edge& e = edges[movable[SplitMix64Next(rng) % movable.size()]];
    if (e.source != w.source || e.target != w.target) {
      d.delete_edges.push_back({e.source, e.target});
    }
  }
  for (size_t tries = 0; d.insert_edges.empty() && tries < 256; ++tries) {
    const VertexId u = region[SplitMix64Next(rng) % region.size()];
    const auto v = static_cast<VertexId>(SplitMix64Next(rng) %
                                         g.NumVertices());
    const auto out = g.OutNeighbors(u);
    if (v != u && v != 0 &&
        std::find(out.begin(), out.end(), v) == out.end()) {
      d.insert_edges.push_back({u, v, p0});
    }
  }
  if (d.delete_edges.empty() || d.insert_edges.empty()) return std::nullopt;
  Result<Graph> next = ApplyDelta(g, d);
  VBLOCK_CHECK(next.ok());
  return std::move(*next);
}

// Random ER instances, p uniform in [0.1, 0.9] rounded to a tenth (so
// values repeat, and an update can keep the class table), with 10–14
// uncertain edges in the root's region, three blockers to walk (b3 is
// usually b1 again) and one the root has no edge into, three region
// updates, and a blocker on the first and the third updated graph.
std::vector<OracleInstance> OracleInstances(size_t count) {
  std::vector<OracleInstance> out;
  for (uint64_t seed = 1; out.size() < count; ++seed) {
    const auto n = static_cast<VertexId>(10 + seed % 9);
    Graph g = InTenths(WithUniformProbability(
        GenerateErdosRenyi(n, static_cast<EdgeId>(n + n / 2), seed), 0.1,
        0.9, seed));
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
    mask.Clear(b2);
    mask.Set(b3);
    const VertexId d = BestExact(g, mask, /*off_root=*/true);
    if (d == kInvalidVertex) continue;
    std::optional<Graph> g1 = RegionUpdate(g, seed);
    if (!g1) continue;
    std::optional<Graph> g2 = RegionUpdate(*g1, seed + 1000);
    if (!g2) continue;
    std::optional<Graph> g3 = RegionUpdate(*g2, seed + 2000);
    if (!g3) continue;
    const VertexMask none(n);
    const VertexId c1 = BestExact(*g1, none);
    const VertexId c3 = BestExact(*g3, none);
    if (c1 == kInvalidVertex || c3 == kInvalidVertex) continue;
    out.push_back({std::move(g), b1, b2, b3, d, std::move(*g1),
                   std::move(*g2), std::move(*g3), c1, c3});
  }
  return out;
}

// Carries `engine` — at rest, bound to *live — across `steps` as the query
// service does: each step patches the grouped view forward and swaps *live
// in place, the changed rows fold into one pending union, and one
// MigrateGraph re-derives the samples that read a row of it.
void MigrateAcross(Graph* live, std::initializer_list<const Graph*> steps,
                   SpreadDecreaseEngine* engine) {
  WarmEntry pending;
  for (const Graph* step : steps) {
    Graph next = *step;
    std::vector<VertexId> changed_out, changed_in;
    ComputeChangedRows(*live, next, &changed_out, &changed_in);
    auto patched = ProbGroupedView::DeltaPatched(live->GroupedView(), next,
                                                 changed_out, changed_in);
    VBLOCK_CHECK_MSG(patched != nullptr, "a region update keeps classes");
    next.InstallGroupedView(std::move(patched));
    *live = std::move(next);
    pending.AddPendingRows(changed_out, changed_in);
  }
  engine->MigrateGraph(pending.pending_out, pending.pending_in);
}

// Every state of the walk fresh → Block(b1) → Block(b2) → Unblock(b1) →
// Block(b3) → Unblock(b2) → Block(b2) → Unblock(b2) → Block(d) →
// Unblock(d) → Restore → migrate to g1 → Block(c1) → Restore → migrate
// to g3 over the folded g2 and g3 deltas → Block(c3), under both reuse
// modes and both sampler kinds. The second Unblock(b2) must flip coins
// the first did not, and Unblock(d) extends only the samples that hold
// an in-neighbour of d. In each state the
// spread and every vertex's Δ must lie within ε·OPT of the exact value,
// with ε = GuaranteedEpsilon(n, θ, l, OPT); an exact Δ of 0 must be
// sampled as exactly 0. Theorem 5 bounds each estimate's failure
// probability by n^−l, and l is chosen so that n^−l · (number of compared
// estimates) ≤ 10⁻³: by the union bound, a correct engine fails this test
// with probability at most 10⁻³. The old kResample Block (re-draw the
// dirty samples with fresh coins, keep the rest) left the band after
// Block(b1), by up to 1.9× under both sampler kinds.
TEST(OracleTest, EngineStatesMatchEnumerationWithinTheorem5Band) {
  constexpr uint32_t kTheta = 20000;
  constexpr size_t kInstances = 8;
  constexpr int kStates = 16;
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
    const VertexId n = inst.graph.NumVertices();
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
    auto enumerate = [&](const Graph& g) {
      auto exact = ComputeSpreadDecreaseExact(g, 0, &mask);
      VBLOCK_CHECK(exact.ok());
      truth.push_back(std::move(*exact));
    };
    enumerate(inst.graph);  // fresh
    mask.Set(inst.b1);
    enumerate(inst.graph);
    mask.Set(inst.b2);
    enumerate(inst.graph);
    mask.Clear(inst.b1);
    enumerate(inst.graph);
    mask.Set(inst.b3);
    enumerate(inst.graph);
    mask.Clear(inst.b2);
    enumerate(inst.graph);
    truth.push_back(truth[4]);  // b2 blocked again
    truth.push_back(truth[5]);  // b2 unblocked again
    mask.Set(inst.d);
    enumerate(inst.graph);
    truth.push_back(truth[5]);  // d unblocked
    truth.push_back(truth[0]);  // restored
    mask = VertexMask(n);
    enumerate(inst.g1);  // migrated
    mask.Set(inst.c1);
    enumerate(inst.g1);
    truth.push_back(truth[11]);  // restored
    mask = VertexMask(n);
    enumerate(inst.g3);  // migrated over two folded updates
    mask.Set(inst.c3);
    enumerate(inst.g3);
    const char* const kStateNames[kStates] = {
        "fresh",      "block b1",         "block b2",      "unblock b1",
        "block b3",   "unblock b2",       "reblock b2",    "unblock b2 again",
        "block d",    "unblock d",        "restore",       "migrate g1",
        "block c1",   "restore g1",       "migrate g2+g3", "block c3"};

    for (SampleReuse reuse : kReuseModes) {
      for (SamplerKind kind : kSamplerKinds) {
        // Migration swaps the graph's content under the engine in place.
        Graph live = inst.graph;
        SpreadDecreaseEngine engine(live, 0,
                                    OracleOptions(kTheta, reuse, kind));
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
        ASSERT_TRUE(engine.Unblock(inst.b2));
        check(5);
        ASSERT_TRUE(engine.Block(inst.b2));
        check(6);
        ASSERT_TRUE(engine.Unblock(inst.b2));
        check(7);
        ASSERT_TRUE(engine.Block(inst.d));
        check(8);
        ASSERT_TRUE(engine.Unblock(inst.d));
        check(9);
        engine.Restore();
        check(10);
        MigrateAcross(&live, {&inst.g1}, &engine);
        check(11);
        ASSERT_TRUE(engine.Block(inst.c1));
        check(12);
        engine.Restore();
        check(13);
        MigrateAcross(&live, {&inst.g2, &inst.g3}, &engine);
        check(14);
        ASSERT_TRUE(engine.Block(inst.c3));
        check(15);
      }
    }
  }
  EXPECT_EQ(static_cast<uint64_t>(compared), estimates);
}

}  // namespace
}  // namespace vblock
