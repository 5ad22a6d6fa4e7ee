// Scenario: the paper's §V-E extension — IMIN under the triggering model,
// here instantiated as Linear Threshold (LT).
//
// The triggering framework replaces the IC per-edge coins with per-vertex
// triggering sets; AdvancedGreedy / GreedyReplace run unchanged on those
// samples. Weighted-cascade weights (p = 1/din) are a valid LT weighting
// (they sum to exactly 1 per vertex), so the same graph can be diffused
// under both semantics and the blocker quality compared.
//
//   $ ./examples/triggering_extension

#include <cstdio>
#include <iostream>

#include "vblock.h"

int main() {
  vblock::Graph g = vblock::WithWeightedCascade(
      vblock::GenerateBarabasiAlbert(1500, 4, /*seed=*/7));
  std::printf("graph: n=%u, m=%llu, WC weights (valid LT weighting)\n\n",
              g.NumVertices(),
              static_cast<unsigned long long>(g.NumEdges()));

  const std::vector<vblock::VertexId> seeds = {3, 99, 512};

  // The triggering machinery runs on the unified single-seed instance.
  vblock::UnifiedInstance inst = vblock::UnifySeeds(g, seeds);
  // NOTE: the super-seed edges use noisy-or probabilities, which can push a
  // vertex's in-weight sum slightly above 1; renormalize for LT validity.
  vblock::GraphBuilder fix;
  fix.ReserveVertices(inst.graph.NumVertices());
  for (vblock::VertexId v = 0; v < inst.graph.NumVertices(); ++v) {
    double sum = 0;
    for (double w : inst.graph.InProbabilities(v)) sum += w;
    const double scale = sum > 1.0 ? 1.0 / sum : 1.0;
    auto sources = inst.graph.InNeighbors(v);
    auto weights = inst.graph.InProbabilities(v);
    for (size_t k = 0; k < sources.size(); ++k) {
      fix.AddEdge(sources[k], v, weights[k] * scale);
    }
  }
  auto normalized = fix.Build();
  VBLOCK_CHECK(normalized.ok());
  vblock::Graph lt_graph = std::move(normalized.value());

  vblock::LtTriggeringModel lt(lt_graph);

  // Baseline spread under LT (no blockers).
  const double before = vblock::EstimateTriggeringSpread(
      lt_graph, lt, {inst.root}, /*rounds=*/30000, /*seed=*/5);
  std::printf("LT spread without blocking: %.2f\n", before);

  vblock::TablePrinter table(
      {"b", "AG(LT) spread", "GR(LT) spread", "GR(IC-sampling) spread"});
  for (uint32_t budget : {5u, 10u, 20u}) {
    // AG and GR with triggering-model sampling (the §V-E extension).
    vblock::GreedyOptions ag;
    ag.budget = budget;
    ag.theta = 4000;
    ag.seed = 13;
    ag.triggering_model = &lt;
    auto ag_sel = vblock::AdvancedGreedy(lt_graph, inst.root, ag);

    vblock::GreedyOptions gr;
    gr.budget = budget;
    gr.theta = 4000;
    gr.seed = 13;
    gr.triggering_model = &lt;
    auto gr_sel = vblock::GreedyReplace(lt_graph, inst.root, gr);

    // Mis-specified control: choose blockers with IC sampling semantics,
    // then evaluate them under LT — quantifies what §V-E's native
    // triggering support buys.
    vblock::GreedyOptions ic;
    ic.budget = budget;
    ic.theta = 4000;
    ic.seed = 13;
    auto ic_sel = vblock::GreedyReplace(lt_graph, inst.root, ic);

    auto lt_eval = [&](const std::vector<vblock::VertexId>& blockers) {
      vblock::VertexMask mask(lt_graph.NumVertices());
      for (auto b : blockers) mask.Set(b);
      return vblock::EstimateTriggeringSpread(lt_graph, lt, {inst.root},
                                              30000, 5, &mask);
    };
    table.AddRow({std::to_string(budget),
                  vblock::FormatDouble(lt_eval(ag_sel.blockers), 5),
                  vblock::FormatDouble(lt_eval(gr_sel.blockers), 5),
                  vblock::FormatDouble(lt_eval(ic_sel.blockers), 5)});
  }
  table.Print(std::cout);
  std::printf("\nReading: AG/GR with native LT sampling minimize the LT\n"
              "spread; IC-sampled blockers remain decent here because WC\n"
              "weights make the two models behave similarly.\n");
  return 0;
}
