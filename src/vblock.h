// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Umbrella header: the full public API of the vblock library, a C++20
// implementation of "Minimizing the Influence of Misinformation via Vertex
// Blocking" (ICDE 2023).
//
// Typical usage:
//
//   #include "vblock.h"
//
//   vblock::Graph g = vblock::WithWeightedCascade(
//       vblock::GenerateBarabasiAlbert(10000, 5, /*seed=*/7));
//   std::vector<vblock::VertexId> seeds = {0, 1, 2};
//
//   vblock::SolverOptions opts;
//   opts.algorithm = vblock::Algorithm::kGreedyReplace;
//   opts.budget = 20;
//   auto result = vblock::SolveImin(g, seeds, opts);
//   VBLOCK_CHECK(result.ok());
//   double spread = vblock::EvaluateSpread(g, seeds, result->blockers);

#pragma once

// common
#include "common/check.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/sampler_kind.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/types.h"

// graph substrate
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/prob_grouped_view.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "graph/vertex_mask.h"

// synthetic datasets
#include "gen/dataset_catalog.h"
#include "gen/generators.h"

// probability models
#include "prob/probability_models.h"

// diffusion
#include "cascade/exact_spread.h"
#include "cascade/ic_model.h"
#include "cascade/monte_carlo.h"
#include "cascade/triggering.h"

// dominator trees
#include "domtree/dominator_tree.h"
#include "domtree/flat_graph_view.h"

// sampling
#include "sampling/reachable_sampler.h"
#include "sampling/sample_pool.h"
#include "sampling/sample_reuse.h"
#include "sampling/sampled_graph.h"
#include "sampling/triggering_sampler.h"
#include "sampling/world_enumerator.h"

// core algorithms
#include "core/baseline_greedy.h"
#include "core/batch_solver.h"
#include "core/betweenness.h"
#include "core/blocker_result.h"
#include "core/evaluator.h"
#include "core/exact_blocker.h"
#include "core/greedy.h"
#include "core/heuristics.h"
#include "core/query_key.h"
#include "core/sample_size.h"
#include "core/solver.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "core/unified_instance.h"

// observability: metrics registry + per-stage solve traces
#include "obs/metrics.h"
#include "obs/solve_trace.h"

// in-process query service
#include "service/graph_registry.h"
#include "service/pool_cache.h"
#include "service/protocol.h"
#include "service/query_service.h"
