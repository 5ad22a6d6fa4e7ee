// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Per-layer probes of the traced run. Each replayed query walks the steps a
// served AG/GR solve takes, one public call at a time, with a span around
// each call:
//
//   UnifySeeds → SpreadDecreaseEngine::Build → Block/BestUnblocked rounds
//   → Unblock + re-Block of each blocker (what GR phase 2 does to one) →
//   Restore → MigrateGraph across the workload's UPDATE delta.
//
// A mirror SamplePool with the engine's options goes through the same
// mask changes, so the dirty sets (Begin{Block,Unblock,Restore,Migrate})
// and the draw / dominator-tree unit costs can be counted from outside the
// engine. The mirror draws the same worlds as the engine; the replay checks
// that through the spread estimate and the AG picks.

#include <cmath>

#include "core/spread_decrease_engine.h"
#include "core/unified_instance.h"
#include "domtree/dominator_tree.h"
#include "graph/prob_grouped_view.h"
#include "sampling/sample_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Tally {
  double nanos = 0;
  double calls = 0;
  void Add(uint64_t ns) {
    nanos += static_cast<double>(ns);
    calls += 1;
  }
  double MeanMs() const { return calls > 0 ? nanos / calls * 1e-6 : 0; }
};

struct Counts {
  double sum = 0;
  double calls = 0;
  void Add(double v) {
    sum += v;
    calls += 1;
  }
  double Mean() const { return calls > 0 ? sum / calls : 0; }
};

struct LayerTotals {
  Tally unify, build, select, block, unblock, restore, migrate, apply;
  double draw_nanos = 0, draw_vertices = 0, draw_samples = 0;
  double domtree_nanos = 0, domtree_vertices = 0;
  Counts per_block, per_unblock, per_restore, per_migrate;
  double reach_hits = 0, reach_total = 0;
  bool in_sync = true;
};

bool RegionContains(const vblock::SampledGraph& s, VertexId v) {
  for (VertexId u : s.to_parent) {
    if (u == v) return true;
  }
  return false;
}

void ReplayQuery(const vblock::Graph& g, const Query& q,
                 const std::vector<VertexId>& answer, const DeltaPair& delta,
                 SpanLog* log, LayerTotals* t,
                 std::vector<std::string>* notes) {
  Scope query_span(log, "bench.replay");
  vblock::UnifiedInstance inst;
  {
    Scope s(log, "core.unify");
    inst = vblock::UnifySeeds(g, q.seeds);
    t->unify.Add(s.Stop());
  }
  vblock::SpreadDecreaseOptions sd;
  sd.theta = q.theta;
  sd.seed = ReferenceOptions(q).seed;
  sd.threads = 1;
  sd.sample_reuse = vblock::SampleReuse::kResample;
  sd.sampler_kind = vblock::SamplerKind::kGeometricSkip;
  vblock::SpreadDecreaseEngine engine(inst.graph, inst.root, sd);
  {
    Scope s(log, "core.build");
    engine.Build();
    t->build.Add(s.Stop());
  }

  vblock::SamplePool::Options po;
  po.theta = sd.theta;
  po.seed = sd.seed;
  po.reuse = sd.sample_reuse;
  po.sampler_kind = sd.sampler_kind;
  vblock::SamplePool mirror(inst.graph, inst.root, po);
  vblock::SamplePool::Scratch scratch = mirror.MakeScratch();
  {
    Scope s(log, "sampling.derive");
    for (uint32_t i = 0; i < po.theta; ++i) mirror.DeriveSample(i, &scratch);
    t->draw_nanos += static_cast<double>(s.Stop());
  }
  double region_sum = 0;
  for (uint32_t i = 0; i < po.theta; ++i) {
    region_sum += mirror.sample(i).NumVertices();
  }
  t->draw_vertices += region_sum;
  t->draw_samples += po.theta;
  if (std::fabs(region_sum / po.theta - engine.ExpectedSpread()) > 1e-9) {
    t->in_sync = false;
  }
  mirror.FinalizeBuild();
  for (uint32_t i = 0; i < po.theta; ++i) mirror.AddToIndex(i);
  {
    vblock::DominatorWorkspace ws;
    vblock::DominatorTree tree;
    std::vector<VertexId> sizes;
    Scope s(log, "domtree.compute");
    for (uint32_t i = 0; i < po.theta; ++i) {
      ws.ComputeDominatorTreeInto(mirror.sample(i).View(), 0, &tree);
      ws.ComputeSubtreeSizesInto(tree, &sizes);
    }
    t->domtree_nanos += static_cast<double>(s.Stop());
    t->domtree_vertices += region_sum;
  }

  std::vector<uint32_t> dirty;
  auto rederive = [&](const char* name) {
    Scope s(log, name);
    for (uint32_t i : dirty) mirror.RemoveFromIndex(i);
    for (uint32_t i : dirty) mirror.DeriveSample(i, &scratch);
    for (uint32_t i : dirty) mirror.AddToIndex(i);
  };
  auto block = [&](VertexId v) {
    {
      Scope s(log, "core.block");
      engine.Block(v);
      t->block.Add(s.Stop());
    }
    dirty.clear();
    mirror.BeginBlock(v, &dirty);
    t->per_block.Add(static_cast<double>(dirty.size()));
    rederive("sampling.rederive_block");
  };

  // The blockers in selection order. AG: re-run the greedy rounds through
  // BestUnblocked/Block (the picks must equal the served answer). GR: its
  // phase-2 order is not exposed, so block the final set in answer order.
  std::vector<VertexId> blocked;
  if (q.algorithm == Algorithm::kAdvancedGreedy) {
    for (uint32_t r = 0; r < q.budget; ++r) {
      VertexId v;
      {
        Scope s(log, "core.select");
        v = engine.BestUnblocked();
        t->select.Add(s.Stop());
      }
      if (v == vblock::kInvalidVertex) break;
      block(v);
      blocked.push_back(v);
    }
    if (inst.BlockersToOriginal(blocked) != answer) t->in_sync = false;
  } else {
    for (VertexId orig : answer) {
      const VertexId v = inst.to_unified[orig];
      {
        Scope s(log, "core.select");
        engine.BestUnblocked();
        t->select.Add(s.Stop());
      }
      block(v);
      blocked.push_back(v);
    }
  }

  auto restore = [&](bool counted) {
    {
      Scope s(log, "core.restore");
      engine.Restore();
      if (counted) t->restore.Add(s.Stop());
    }
    dirty.clear();
    mirror.BeginRestore(&dirty);
    if (counted) t->per_restore.Add(static_cast<double>(dirty.size()));
    rederive("sampling.rederive_restore");
  };
  // AG's own path ends here: its restore is the one the service pays.
  const bool ag = q.algorithm == Algorithm::kAdvancedGreedy;
  if (ag) {
    restore(true);
    for (VertexId v : blocked) block(v);
  }

  // Unblock probe: unblock and re-block each blocker on the warm engine,
  // which is what GR phase 2 does to each blocker it revisits (so GR's
  // restore is counted after it).
  for (VertexId v : blocked) {
    {
      Scope s(log, "core.unblock");
      engine.Unblock(v);
      t->unblock.Add(s.Stop());
    }
    dirty.clear();
    mirror.BeginUnblock(v, &dirty);
    t->per_unblock.Add(static_cast<double>(dirty.size()));
    rederive("sampling.rederive_unblock");
    for (uint32_t i : dirty) {
      t->reach_hits += RegionContains(mirror.sample(i), v) ? 1 : 0;
    }
    t->reach_total += static_cast<double>(dirty.size());
    block(v);
  }
  restore(!ag);

  // Migration across the workload's UPDATE, exactly as the service carries
  // a warm entry: re-unify, diff rows, patch the grouped view, swap the
  // graph in place, re-derive.
  auto mutated = vblock::ApplyDelta(g, delta.forward);
  if (!mutated.ok()) {
    notes->push_back("replay: delta does not apply");
    return;
  }
  vblock::UnifiedInstance fresh = vblock::UnifySeeds(*mutated, q.seeds);
  if (fresh.graph.NumVertices() != inst.graph.NumVertices() ||
      fresh.root != inst.root || fresh.to_original != inst.to_original) {
    notes->push_back("replay: unified id space moved under the delta");
    return;
  }
  std::vector<VertexId> changed_out, changed_in;
  vblock::ComputeChangedRows(inst.graph, fresh.graph, &changed_out,
                             &changed_in);
  auto patched = vblock::ProbGroupedView::DeltaPatched(
      inst.graph.GroupedView(), fresh.graph, changed_out, changed_in);
  if (patched == nullptr) {
    notes->push_back("replay: unified class table unstable under the delta");
    return;
  }
  fresh.graph.InstallGroupedView(std::move(patched));
  inst.graph = std::move(fresh.graph);
  uint32_t rederived = 0;
  {
    Scope s(log, "core.migrate");
    rederived = engine.MigrateGraph(changed_out, changed_in);
    t->migrate.Add(s.Stop());
  }
  t->per_migrate.Add(rederived);
  dirty.clear();
  mirror.BeginMigrate(changed_out, changed_in, &dirty);
  if (dirty.size() != rederived) t->in_sync = false;
  scratch = mirror.MakeScratch();  // samplers hold the old grouped view
  rederive("sampling.rederive_migrate");
  mirror.FinishMigrate();
}

// Distinct replay queries: a couple are enough for unit costs and keep the
// traced run short.
constexpr size_t kReplayQueries = 2;
constexpr int kApplyCalls = 6;

}  // namespace

void ReplayLayers(const WorkloadSpec& spec, const std::vector<Query>& queries,
                  const std::vector<std::vector<VertexId>>& answers,
                  const DeltaPair& delta, const vblock::GraphLoadOptions& load,
                  SpanLog* log, MetricList* m,
                  std::vector<std::string>* notes) {
  LayerTotals t;
  vblock::GraphRegistry registry;
  auto snap = registry.LoadGenerated("g", spec.dataset, spec.scale, 7, load);
  if (!snap.ok()) {
    notes->push_back("replay: load failed");
    return;
  }
  for (size_t i = 0; i < std::min(kReplayQueries, queries.size()); ++i) {
    ReplayQuery((*snap)->graph, queries[i], answers[i], delta, log, &t, notes);
  }
  // GraphRegistry::Apply, alternating the delta and its inverse.
  for (int k = 0; k < kApplyCalls; ++k) {
    Scope s(log, "graph.apply");
    auto r = registry.Apply("g", k % 2 == 0 ? delta.forward : delta.backward);
    t.apply.Add(s.Stop());
    if (!r.ok()) notes->push_back("replay: Apply failed");
  }
  if (!t.in_sync) {
    notes->push_back("replay: mirror pool diverged from the engine; "
                     "dirty-set counts are not trustworthy");
  }

  m->Set("graph.apply_ms", t.apply.MeanMs(), "ms");
  m->Set("sampling.region_vertices",
         t.draw_samples > 0 ? t.draw_vertices / t.draw_samples : 0,
         "vertices");
  m->Set("sampling.draw_ns_per_vertex",
         t.draw_vertices > 0 ? t.draw_nanos / t.draw_vertices : 0,
         "ns/vertex");
  m->Set("sampling.rederived_per_block", t.per_block.Mean(), "samples");
  m->Set("sampling.rederived_per_unblock", t.per_unblock.Mean(), "samples");
  m->Set("sampling.rederived_per_restore", t.per_restore.Mean(), "samples");
  m->Set("sampling.rederived_per_migrate", t.per_migrate.Mean(), "samples");
  m->Set("sampling.unblock_reach_share",
         t.reach_total > 0 ? t.reach_hits / t.reach_total : 0, "fraction");
  m->Set("domtree.ns_per_vertex",
         t.domtree_vertices > 0 ? t.domtree_nanos / t.domtree_vertices : 0,
         "ns/vertex");
  m->Set("core.unify_ms", t.unify.MeanMs(), "ms");
  m->Set("core.build_ms", t.build.MeanMs(), "ms");
  m->Set("core.block_ms", t.block.MeanMs(), "ms");
  m->Set("core.unblock_ms", t.unblock.MeanMs(), "ms");
  m->Set("core.select_us", t.select.MeanMs() * 1e3, "us");
  m->Set("core.restore_ms", t.restore.MeanMs(), "ms");
  m->Set("core.migrate_ms", t.migrate.MeanMs(), "ms");
}

}  // namespace perfbench
