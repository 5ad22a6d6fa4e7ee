// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Dynamic graph epochs (docs/DESIGN.md §11): GraphDelta application and
// validation, row-level diffing, grouped-view delta patching, registry
// Apply semantics, and — the load-bearing property — bit-exactness of
// warm-pool epoch migration: an engine carried across an in-place graph
// mutation (SpreadDecreaseEngine::MigrateGraph) must answer every query
// identically to one cold-built on the mutated graph, in both reuse modes,
// at any thread count, across a whole stream of updates interleaved with
// solves.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cascade/triggering.h"
#include "common/rng.h"
#include "core/spread_decrease_engine.h"
#include "core/unified_instance.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/prob_grouped_view.h"
#include "prob/probability_models.h"
#include "service/graph_registry.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "testing/toy_graphs.h"

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

// Canonical edge list for graph equality: CollectEdges already returns
// CSR order, which is itself canonical per graph build.
std::vector<Edge> SortedEdges(const Graph& g) {
  std::vector<Edge> edges = g.CollectEdges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.source, a.target) < std::tie(b.source, b.target);
  });
  return edges;
}

bool SameEdges(const Graph& a, const Graph& b) {
  const std::vector<Edge> ea = SortedEdges(a);
  const std::vector<Edge> eb = SortedEdges(b);
  if (ea.size() != eb.size()) return false;
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].source != eb[i].source || ea[i].target != eb[i].target ||
        ea[i].probability != eb[i].probability) {
      return false;
    }
  }
  return true;
}

// Deterministic delta stream against the evolving graph (the shape
// bench_dynamic_graph replays): per update `edges_per_update` probability
// swaps, plus one edge deleted on odd updates and re-inserted on the
// next. Every mutation is chosen CLASS-TABLE-STABLE — a touched edge is
// never the first CSR-order appearance of its probability value and a
// swap only takes the value of a strictly earlier CSR edge — so the
// grouped-view class table (and with it every untouched vertex's grouped
// edge order) survives each update bit-identically and DeltaPatched
// always succeeds.
std::vector<GraphDelta> MakeDeltaStream(const Graph& base, uint32_t updates,
                                        uint32_t edges_per_update,
                                        uint64_t rng,
                                        VertexId seed_vertex = 0) {
  std::vector<GraphDelta> deltas;
  Graph current = base;
  Edge pending_reinsert;
  bool have_pending = false;
  for (uint32_t u = 0; u < updates; ++u) {
    GraphDelta d;
    const std::vector<Edge> edges = current.CollectEdges();
    // Edges incident to the seed do not survive unification (the seed's
    // out-row becomes the super-seed row at the END of the scan; in-edges
    // of the seed are dropped outright), so they take no part in the
    // unified class ordering: skip them as candidates AND as value
    // sources — copying an in-seed edge's value could introduce a class
    // the unified graph has never seen.
    auto unified_edge = [&](size_t i) {
      return edges[i].source != seed_vertex && edges[i].target != seed_vertex;
    };
    std::map<double, size_t> first_pos;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (unified_edge(i)) first_pos.try_emplace(edges[i].probability, i);
    }
    auto stable = [&](size_t i) {
      return i > 0 && unified_edge(i) &&
             first_pos[edges[i].probability] != i;
    };
    std::set<std::pair<VertexId, VertexId>> used;
    if (have_pending) {
      d.insert_edges.push_back(pending_reinsert);
      used.insert({pending_reinsert.source, pending_reinsert.target});
      have_pending = false;
    }
    for (uint32_t k = 0; k < edges_per_update; ++k) {
      rng = SplitMix64Next(rng);
      const size_t i = rng % edges.size();
      if (!stable(i)) continue;
      const Edge& e = edges[i];
      if (!used.insert({e.source, e.target}).second) continue;
      rng = SplitMix64Next(rng);
      const size_t j = rng % i;
      if (!unified_edge(j)) continue;
      d.update_probabilities.push_back(
          {e.source, e.target, edges[j].probability});
    }
    if (u % 2 == 1) {
      for (uint32_t tries = 0; tries < 64; ++tries) {
        rng = SplitMix64Next(rng);
        const size_t i = rng % edges.size();
        if (!stable(i)) continue;
        const Edge& e = edges[i];
        if (!used.insert({e.source, e.target}).second) continue;
        d.delete_edges.push_back({e.source, e.target});
        pending_reinsert = e;
        have_pending = true;
        break;
      }
    }
    Result<Graph> next = ApplyDelta(current, d);
    VBLOCK_CHECK(next.ok());
    current = std::move(*next);
    deltas.push_back(std::move(d));
  }
  return deltas;
}

// ---------------------------------------------------------------------------
// ApplyDelta and ComputeChangedRows
// ---------------------------------------------------------------------------

TEST(GraphDeltaTest, ValidationRejectsInconsistentDeltas) {
  const Graph g = PaperFigure1Graph();

  GraphDelta insert_existing;
  insert_existing.insert_edges.push_back({0, 1, 0.5});
  EXPECT_EQ(ApplyDelta(g, insert_existing).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta delete_missing;
  delete_missing.delete_edges.push_back({0, 8});
  EXPECT_EQ(ApplyDelta(g, delete_missing).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta update_missing;
  update_missing.update_probabilities.push_back({0, 8, 0.5});
  EXPECT_EQ(ApplyDelta(g, update_missing).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta self_loop;
  self_loop.insert_edges.push_back({3, 3, 0.5});
  EXPECT_EQ(ApplyDelta(g, self_loop).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta bad_prob;
  bad_prob.insert_edges.push_back({0, 8, 1.5});
  EXPECT_EQ(ApplyDelta(g, bad_prob).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta out_of_range;
  out_of_range.insert_edges.push_back({0, 99, 0.5});
  EXPECT_EQ(ApplyDelta(g, out_of_range).status().code(),
            StatusCode::kInvalidArgument);

  // Deleting a vertex and touching one of its edges in the same delta.
  GraphDelta conflict;
  conflict.delete_vertices.push_back(4);  // v5: has edges both ways
  conflict.update_probabilities.push_back({4, 2, 0.9});
  EXPECT_EQ(ApplyDelta(g, conflict).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphDeltaTest, InsertThenDeleteRoundTripsToIdentity) {
  const Graph g = PaperFigure1Graph();

  GraphDelta forward;
  forward.insert_edges.push_back({2, 6, 0.25});   // v3 -> v7
  forward.insert_edges.push_back({6, 8, 0.75});   // v7 -> v9
  forward.add_vertices = 2;                       // ids 9, 10
  forward.insert_edges.push_back({8, 9, 0.5});    // v9 -> new
  Result<Graph> mutated = ApplyDelta(g, forward);
  ASSERT_TRUE(mutated.ok()) << mutated.status().message();
  EXPECT_EQ(mutated->NumVertices(), g.NumVertices() + 2);
  EXPECT_EQ(mutated->NumEdges(), g.NumEdges() + 3);

  GraphDelta backward;
  backward.delete_edges.push_back({2, 6});
  backward.delete_edges.push_back({6, 8});
  backward.delete_edges.push_back({8, 9});
  Result<Graph> back = ApplyDelta(*mutated, backward);
  ASSERT_TRUE(back.ok()) << back.status().message();

  // Ids never compact: the two added vertices survive as isolated
  // tombstones, but every edge matches the original bit-for-bit.
  EXPECT_EQ(back->NumVertices(), g.NumVertices() + 2);
  EXPECT_TRUE(SameEdges(*back, g));
}

TEST(GraphDeltaTest, UntouchedRowsStayBitIdentical) {
  const Graph g = WithWeightedCascade(GenerateBarabasiAlbert(300, 3, 7));
  GraphDelta d;
  d.update_probabilities.push_back(
      {g.CollectEdges()[0].source, g.CollectEdges()[0].target, 0.123});
  Result<Graph> mutated = ApplyDelta(g, d);
  ASSERT_TRUE(mutated.ok());

  std::vector<VertexId> changed_out, changed_in;
  ComputeChangedRows(g, *mutated, &changed_out, &changed_in);
  ASSERT_EQ(changed_out.size(), 1u);
  ASSERT_EQ(changed_in.size(), 1u);
  EXPECT_EQ(changed_out[0], g.CollectEdges()[0].source);
  EXPECT_EQ(changed_in[0], g.CollectEdges()[0].target);

  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v == changed_out[0]) continue;
    const auto old_row = g.OutNeighbors(v);
    const auto new_row = mutated->OutNeighbors(v);
    ASSERT_EQ(old_row.size(), new_row.size());
    for (size_t k = 0; k < old_row.size(); ++k) {
      EXPECT_EQ(old_row[k], new_row[k]);
      EXPECT_EQ(g.OutProbabilities(v)[k], mutated->OutProbabilities(v)[k]);
    }
  }
}

TEST(GraphDeltaTest, ChangedRowsCoverAddedVertices) {
  const Graph g = PathGraph(5);
  GraphDelta d;
  d.add_vertices = 2;          // ids 5, 6
  d.insert_edges.push_back({4, 5, 1.0});
  Result<Graph> mutated = ApplyDelta(g, d);
  ASSERT_TRUE(mutated.ok());

  std::vector<VertexId> changed_out, changed_in;
  ComputeChangedRows(g, *mutated, &changed_out, &changed_in);
  // Vertex 4 gained an out-edge; vertex 5 gained an in-edge; vertex 6 is
  // isolated and must NOT be reported.
  EXPECT_EQ(changed_out, (std::vector<VertexId>{4}));
  EXPECT_EQ(changed_in, (std::vector<VertexId>{5}));
}

// ---------------------------------------------------------------------------
// ProbGroupedView::DeltaPatched
// ---------------------------------------------------------------------------

// Deep equality of two grouped views over the same graph.
void ExpectViewsIdentical(const ProbGroupedView& a, const ProbGroupedView& b,
                          const Graph& g) {
  ASSERT_EQ(a.NumClasses(), b.NumClasses());
  for (uint32_t c = 0; c < a.NumClasses(); ++c) {
    EXPECT_EQ(a.ClassAt(c).probability, b.ClassAt(c).probability);
    EXPECT_EQ(a.ClassAt(c).inv_log1m, b.ClassAt(c).inv_log1m);
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto ra = a.OutRuns(v);
    const auto rb = b.OutRuns(v);
    ASSERT_EQ(ra.size(), rb.size()) << "out runs of " << v;
    for (size_t k = 0; k < ra.size(); ++k) EXPECT_EQ(ra[k], rb[k]);
    const auto na = a.GroupedOutNeighbors(v);
    const auto nb = b.GroupedOutNeighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t k = 0; k < na.size(); ++k) {
      EXPECT_EQ(na[k], nb[k]);
      EXPECT_EQ(a.OutOriginalPos(v, static_cast<uint32_t>(k)),
                b.OutOriginalPos(v, static_cast<uint32_t>(k)));
    }
    const auto ia = a.InRuns(v);
    const auto ib = b.InRuns(v);
    ASSERT_EQ(ia.size(), ib.size()) << "in runs of " << v;
    for (size_t k = 0; k < ia.size(); ++k) EXPECT_EQ(ia[k], ib[k]);
    const auto sa = a.GroupedInNeighbors(v);
    const auto sb = b.GroupedInNeighbors(v);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k], sb[k]);
      EXPECT_EQ(a.InOriginalPos(v, static_cast<uint32_t>(k)),
                b.InOriginalPos(v, static_cast<uint32_t>(k)));
    }
    EXPECT_EQ(a.OutUsesRunWalk(v), b.OutUsesRunWalk(v));
    EXPECT_EQ(a.InUsesRunWalk(v), b.InUsesRunWalk(v));
  }
}

TEST(DeltaPatchedTest, PatchedViewMatchesColdBuild) {
  const Graph g = WithWeightedCascade(GenerateBarabasiAlbert(400, 4, 11));
  const std::vector<GraphDelta> deltas = MakeDeltaStream(g, 3, 20, 0xabc);

  Graph current = g;
  auto view = std::make_unique<ProbGroupedView>(current);
  for (const GraphDelta& d : deltas) {
    Result<Graph> next = ApplyDelta(current, d);
    ASSERT_TRUE(next.ok());
    std::vector<VertexId> changed_out, changed_in;
    ComputeChangedRows(current, *next, &changed_out, &changed_in);
    std::unique_ptr<ProbGroupedView> patched =
        ProbGroupedView::DeltaPatched(*view, *next, changed_out, changed_in);
    ASSERT_NE(patched, nullptr)
        << "probability-swap deltas keep the class table stable";
    const ProbGroupedView cold(*next);
    ExpectViewsIdentical(*patched, cold, *next);
    view = std::move(patched);
    current = std::move(*next);
  }
}

TEST(DeltaPatchedTest, UnstableClassTableReturnsNull) {
  // Replacing the sole p=0.5 edge's probability with a brand-new value
  // that first appears *before* other classes' first appearances breaks
  // first-appearance interning stability.
  const Graph g = PaperFigure1Graph();
  const ProbGroupedView view(g);

  GraphDelta d;
  d.update_probabilities.push_back({0, 1, 0.33});  // v1->v2 was p=1 (class 0)
  Result<Graph> mutated = ApplyDelta(g, d);
  ASSERT_TRUE(mutated.ok());
  std::vector<VertexId> changed_out, changed_in;
  ComputeChangedRows(g, *mutated, &changed_out, &changed_in);
  EXPECT_EQ(ProbGroupedView::DeltaPatched(view, *mutated, changed_out,
                                          changed_in),
            nullptr);
}

// ---------------------------------------------------------------------------
// GraphRegistry::Apply
// ---------------------------------------------------------------------------

TEST(RegistryApplyTest, EpochsAdvanceAndErrorsAreTyped) {
  GraphRegistry registry;
  registry.Add("g", PaperFigure1Graph());
  const GraphRegistry::SnapshotPtr first = *registry.Get("g");

  GraphDelta d;
  d.update_probabilities.push_back({4, 7, 0.4});  // v5->v8: 0.5 -> 0.4
  Result<GraphRegistry::ApplyOutcome> outcome = registry.Apply("g", d);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome->previous, first);
  EXPECT_GT(outcome->snapshot->epoch, first->epoch);
  EXPECT_EQ((*registry.Get("g"))->epoch, outcome->snapshot->epoch);

  EXPECT_EQ(registry.Apply("missing", d).status().code(),
            StatusCode::kNotFound);

  GraphDelta bad;
  bad.delete_edges.push_back({0, 8});
  EXPECT_EQ(registry.Apply("g", bad).status().code(),
            StatusCode::kInvalidArgument);
  // A failed Apply must not publish a new epoch.
  EXPECT_EQ((*registry.Get("g"))->epoch, outcome->snapshot->epoch);
}

// ---------------------------------------------------------------------------
// Engine-level migration bit-exactness (the §11 tentpole property)
// ---------------------------------------------------------------------------

// One AG-style solve against an engine: block `budget` best vertices, then
// restore. Returns the blocker sequence.
std::vector<VertexId> SolveAndRestore(SpreadDecreaseEngine* engine,
                                      uint32_t budget) {
  std::vector<VertexId> picks;
  for (uint32_t b = 0; b < budget; ++b) {
    const VertexId v = engine->BestUnblocked();
    if (v == kInvalidVertex) break;
    EXPECT_TRUE(engine->Block(v));
    picks.push_back(v);
  }
  EXPECT_TRUE(engine->Restore());
  return picks;
}

void ExpectSamplesIdentical(const SpreadDecreaseEngine& warm,
                            const SpreadDecreaseEngine& cold,
                            uint32_t update_index) {
  ASSERT_EQ(warm.theta(), cold.theta());
  for (uint32_t i = 0; i < warm.theta(); ++i) {
    const SampledGraph& sw = warm.PoolSample(i);
    const SampledGraph& sc = cold.PoolSample(i);
    ASSERT_EQ(sw.to_parent, sc.to_parent)
        << "sample " << i << " after update " << update_index;
    ASSERT_EQ(sw.offsets, sc.offsets)
        << "sample " << i << " after update " << update_index;
    ASSERT_EQ(sw.targets, sc.targets)
        << "sample " << i << " after update " << update_index;
  }
}

// Carries one engine across a stream of deltas — replicating exactly what
// QueryService::MigrateEpoch does per entry (in-place graph swap, grouped
// view delta-patch, MigrateGraph) — and checks after every update that the
// migrated engine is indistinguishable from a cold build on the mutated
// graph: same samples, same scores, same blocker sequence.
void RunMigrationStream(SampleReuse reuse, uint32_t threads, uint32_t n,
                        uint32_t theta, uint32_t updates,
                        uint32_t edges_per_update) {
  const uint64_t seed = 20230227;
  const uint32_t budget = 4;
  const Graph base = WithWeightedCascade(GenerateBarabasiAlbert(n, 4, seed));
  const std::vector<GraphDelta> deltas =
      MakeDeltaStream(base, updates, edges_per_update, 0x9e3779b9u ^ seed);
  const SpreadDecreaseOptions opts = EngineOptions(theta, seed, reuse, threads);

  UnifiedInstance inst = UnifySeeds(base, {0});
  SpreadDecreaseEngine warm(inst.graph, inst.root, opts);
  ASSERT_TRUE(warm.Build());
  SolveAndRestore(&warm, budget);

  Graph current = base;
  for (uint32_t u = 0; u < deltas.size(); ++u) {
    Result<Graph> next = ApplyDelta(current, deltas[u]);
    ASSERT_TRUE(next.ok());

    // The in-place swap MigrateEpoch performs: re-unify, diff, patch the
    // grouped view, move the mutated unified graph into the entry's slot.
    UnifiedInstance fresh = UnifySeeds(*next, {0});
    ASSERT_EQ(fresh.graph.NumVertices(), inst.graph.NumVertices());
    ASSERT_EQ(fresh.root, inst.root);
    ASSERT_EQ(fresh.to_original, inst.to_original);
    std::vector<VertexId> changed_out, changed_in;
    ComputeChangedRows(inst.graph, fresh.graph, &changed_out, &changed_in);
    std::unique_ptr<ProbGroupedView> patched = ProbGroupedView::DeltaPatched(
        inst.graph.GroupedView(), fresh.graph, changed_out, changed_in);
    ASSERT_NE(patched, nullptr)
        << "class-stable delta stream must always patch (update " << u << ")";
    fresh.graph.InstallGroupedView(std::move(patched));
    inst.graph = std::move(fresh.graph);
    warm.MigrateGraph(changed_out, changed_in);

    // Cold reference on the same mutated graph.
    UnifiedInstance cold_inst = UnifySeeds(*next, {0});
    SpreadDecreaseEngine cold(cold_inst.graph, cold_inst.root, opts);
    ASSERT_TRUE(cold.Build());

    ExpectSamplesIdentical(warm, cold, u);
    const SpreadDecreaseResult warm_scores = warm.Scores();
    const SpreadDecreaseResult cold_scores = cold.Scores();
    ASSERT_EQ(warm_scores.expected_spread, cold_scores.expected_spread)
        << "after update " << u;
    ASSERT_EQ(warm_scores.delta, cold_scores.delta) << "after update " << u;

    const std::vector<VertexId> warm_picks = SolveAndRestore(&warm, budget);
    const std::vector<VertexId> cold_picks = SolveAndRestore(&cold, budget);
    ASSERT_EQ(warm_picks, cold_picks) << "after update " << u;
    ExpectSamplesIdentical(warm, cold, u + 100);  // post-restore states

    current = std::move(*next);
  }
}

// Half-strength weighted cascade: every in-edge of v weighs 0.5/din(v), so
// the in-weights sum to 0.5 — valid LT weights with room for one more
// in-edge.
Graph HalfCascade(const Graph& g) {
  GraphBuilder builder;
  builder.ReserveVertices(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.InNeighbors(v)) {
      builder.AddEdge(u, v, 0.5 / static_cast<double>(g.InDegree(v)));
    }
  }
  Result<Graph> built = builder.Build();
  VBLOCK_CHECK(built.ok());
  return std::move(*built);
}

bool SampleContains(const SampledGraph& s, VertexId v) {
  return std::find(s.to_parent.begin(), s.to_parent.end(), v) !=
         s.to_parent.end();
}

// Inserting an edge (u, v) changes u's out-row and v's in-row. An IC draw
// reads only the out-rows of region vertices, so an IC pool re-derives
// exactly the samples that contain u. A triggering (LT) draw also reads
// v's in-row whenever it reaches an in-neighbour of v — it draws v's
// trigger set whether or not v turns live — so an LT pool re-derives every
// sample that holds u, v or any in-neighbour of v. Either way the migrated
// pool equals a cold build on the mutated graph.
TEST(MigrationDirtySetTest, DirtiesExactlyTheSamplesThatReadAChangedRow) {
  const Graph base = HalfCascade(GenerateBarabasiAlbert(300, 3, 5));
  const VertexId root = 0;
  SpreadDecreaseOptions opts = EngineOptions(200, 17, SampleReuse::kPrune);
  opts.sampler_kind = SamplerKind::kPerEdgeCoin;

  for (const bool lt : {false, true}) {
    SCOPED_TRACE(lt ? "LT" : "IC");
    Graph g = base;
    const LtTriggeringModel base_model(base);
    SpreadDecreaseEngine engine(g, root, opts, lt ? &base_model : nullptr);
    ASSERT_TRUE(engine.Build());
    auto holds_any = [&](uint32_t i, std::span<const VertexId> vs) {
      for (VertexId x : vs) {
        if (SampleContains(engine.PoolSample(i), x)) return true;
      }
      return false;
    };

    // u: the non-root vertex in the most samples. v: the first vertex not
    // adjacent from u or the root such that some sample holds an
    // in-neighbour of v but neither u nor v — a sample only the in-row
    // rule dirties.
    std::vector<uint32_t> count(g.NumVertices(), 0);
    for (uint32_t i = 0; i < engine.theta(); ++i) {
      for (VertexId x : engine.PoolSample(i).to_parent) ++count[x];
    }
    const VertexId u = static_cast<VertexId>(
        std::max_element(count.begin() + 1, count.end()) - count.begin());
    auto adjacent = [&](VertexId from, VertexId to) {
      const auto out = g.OutNeighbors(from);
      return std::find(out.begin(), out.end(), to) != out.end();
    };
    VertexId v = kInvalidVertex;
    for (VertexId x = 1; x < g.NumVertices() && v == kInvalidVertex; ++x) {
      if (x == u || adjacent(u, x) || adjacent(root, x)) continue;
      const VertexId ux[] = {u, x};
      for (uint32_t i = 0; i < engine.theta(); ++i) {
        if (holds_any(i, g.InNeighbors(x)) && !holds_any(i, ux)) {
          v = x;
          break;
        }
      }
    }
    ASSERT_NE(v, kInvalidVertex);

    GraphDelta delta;
    delta.insert_edges.push_back({u, v, 0.25});
    Result<Graph> next = ApplyDelta(base, delta);
    ASSERT_TRUE(next.ok());
    std::vector<VertexId> changed_out, changed_in;
    ComputeChangedRows(base, *next, &changed_out, &changed_in);
    EXPECT_EQ(changed_out, std::vector<VertexId>{u});
    EXPECT_EQ(changed_in, std::vector<VertexId>{v});

    std::vector<VertexId> readers = {u};
    if (lt) {
      readers.push_back(v);
      for (VertexId w : next->InNeighbors(v)) readers.push_back(w);
    }
    uint32_t expected = 0;
    for (uint32_t i = 0; i < engine.theta(); ++i) {
      expected += holds_any(i, readers) ? 1 : 0;
    }

    g = std::move(*next);  // in place: the engine holds a reference to g
    EXPECT_EQ(engine.MigrateGraph(changed_out, changed_in), expected);

    const LtTriggeringModel model(g);
    SpreadDecreaseEngine cold(g, root, opts, lt ? &model : nullptr);
    ASSERT_TRUE(cold.Build());
    ExpectSamplesIdentical(engine, cold, 0);
    EXPECT_EQ(engine.Scores().delta, cold.Scores().delta);
  }
}

TEST(MigrationBitExactTest, PruneSingleThread) {
  RunMigrationStream(SampleReuse::kPrune, 1, 5000, 1000, 4, 199);
}

TEST(MigrationBitExactTest, ResampleSingleThread) {
  RunMigrationStream(SampleReuse::kResample, 1, 2000, 400, 4, 120);
}

TEST(MigrationBitExactTest, PruneMultiThread) {
  RunMigrationStream(SampleReuse::kPrune, 4, 1200, 300, 3, 80);
}

TEST(MigrationBitExactTest, ResampleMultiThread) {
  RunMigrationStream(SampleReuse::kResample, 4, 1200, 300, 3, 80);
}

}  // namespace
}  // namespace vblock
