// Copyright (c) the vblock authors. Licensed under the MIT license.

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <unordered_map>

#include "graph/prob_grouped_view.h"

namespace perfbench {

namespace {

const char* AlgorithmToken(Algorithm a) {
  return a == Algorithm::kGreedyReplace ? "gr" : "ag";
}

std::string JoinVertices(const std::vector<VertexId>& vs) {
  std::string out;
  for (size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(vs[i]);
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

uint64_t ProbBits(double p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p, sizeof(bits));
  return bits;
}

std::string FormatProb(double p) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", p);
  return buf;
}

}  // namespace

vblock::SolverOptions ReferenceOptions(const Query& q) {
  vblock::SolverOptions opts;  // service defaults: SEED 1, resample, skip
  opts.algorithm = q.algorithm;
  opts.budget = q.budget;
  opts.theta = q.theta;
  opts.threads = 1;
  return opts;
}

std::string SolveLine(const std::string& graph, const Query& q, bool trace) {
  std::string line = "SOLVE " + graph + " SEEDS " + JoinVertices(q.seeds) +
                     " BUDGET " + std::to_string(q.budget) + " ALG " +
                     AlgorithmToken(q.algorithm) + " THETA " +
                     std::to_string(q.theta);
  if (trace) line += " TRACE 1";
  return line;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    w[0].name = "cold_solve";
    w[0].dataset = "Wiki-Vote";
    w[0].scale = 0.1;
    w[0].model = vblock::ProbAssignment::kTrivalency;
    w[0].algorithm = Algorithm::kAdvancedGreedy;
    w[0].theta = 1000;
    w[0].budgets = {10};

    w[1].name = "warm_replace";
    w[1].dataset = "EmailCore";
    w[1].scale = 1.0;
    w[1].model = vblock::ProbAssignment::kWeightedCascade;
    w[1].algorithm = Algorithm::kGreedyReplace;
    w[1].theta = 1000;
    w[1].budgets = {10};
    w[1].hot_keys = 8;

    w[2].name = "served_churn";
    w[2].dataset = "EmailCore";
    w[2].scale = 1.0;
    w[2].model = vblock::ProbAssignment::kWeightedCascade;
    w[2].algorithm = Algorithm::kAdvancedGreedy;
    w[2].theta = 1000;
    w[2].budgets = {5, 10, 20};
    w[2].hot_keys = 8;
    w[2].served = true;
    w[2].service_workers = 2;
    w[2].updates_per_second = 2;
    return w;
  }();
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}";
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  // Children are recorded after their parent and lie inside it, so the
  // covered part of a span is the sum of its children's lengths.
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end >= s.begin) {
      covered[static_cast<size_t>(s.parent)] += s.end - s.begin;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.begin) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const uint64_t length = s.end - s.begin;
    self[layer] += static_cast<double>(length - std::min(length, covered[i])) *
                   1e-9;
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{" << header << ",\n\"self_seconds_by_layer\": {";
  bool first = true;
  for (const auto& [layer, seconds] : SelfSecondsByLayer()) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(layer)
        << "\": " << seconds;
    first = false;
  }
  out << "},\n\"spans\": [\n";
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().begin;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << JsonEscape(s.name) << "\", \"start_ns\": " << (s.begin - origin)
        << ", \"end_ns\": " << (s.end - origin) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<VertexId> DrawSeedSet(const std::vector<VertexId>& pool,
                                  uint32_t count, std::mt19937_64* rng) {
  std::set<VertexId> picked;
  while (picked.size() < count) picked.insert(pool[(*rng)() % pool.size()]);
  return {picked.begin(), picked.end()};
}

DeltaPair MakeStableDelta(const vblock::Graph& g, const std::string& graph,
                          const std::set<VertexId>& excluded, uint64_t seed) {
  // First out-row in which each probability class appears, ignoring edges
  // that touch an excluded vertex (seed edges vanish or merge in the
  // unified instance, so they must not carry a first appearance). Moving
  // an edge at a later row between two classes that both appeared earlier
  // keeps the first-appearance order — the class table — unchanged, in the
  // original graph and in every unified instance of the excluded seeds.
  std::unordered_map<uint64_t, VertexId> first_row;
  std::vector<double> classes;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    if (excluded.count(u)) continue;
    const auto targets = g.OutNeighbors(u);
    const auto probs = g.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      if (excluded.count(targets[k])) continue;
      if (first_row.emplace(ProbBits(probs[k]), u).second) {
        classes.push_back(probs[k]);
      }
    }
  }
  // A changed edge moves to the neighbouring class value (the next larger
  // or smaller probability), so state B stays a small perturbation of A:
  // its solves cost what A's do, and UPDATE cost is the migration itself.
  std::sort(classes.begin(), classes.end());
  // Both endpoints come from the less connected half of the graph: a
  // changed row dirties every pool sample that reaches it, and a hub would
  // make one UPDATE re-derive nearly every sample of every warm pool (the
  // cost would then swing with whether the seed happened to pick a hub).
  std::vector<uint32_t> degree(g.NumVertices());
  for (VertexId x = 0; x < g.NumVertices(); ++x) {
    degree[x] = g.OutDegree(x) + g.InDegree(x);
  }
  std::vector<uint32_t> sorted = degree;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const uint32_t max_degree = sorted[sorted.size() / 2];
  std::mt19937_64 rng(seed);
  DeltaPair pair;
  std::set<std::pair<VertexId, VertexId>> picked;
  std::string forward, backward;
  for (int attempt = 0; attempt < 100000 && classes.size() >= 2 &&
                        picked.size() < kDeltaEdges;
       ++attempt) {
    const VertexId u = static_cast<VertexId>(rng() % g.NumVertices());
    const auto targets = g.OutNeighbors(u);
    if (targets.empty() || excluded.count(u) || degree[u] > max_degree) {
      continue;
    }
    const size_t k = rng() % targets.size();
    const VertexId v = targets[k];
    const double p = g.OutProbabilities(u)[k];
    const size_t at = static_cast<size_t>(
        std::lower_bound(classes.begin(), classes.end(), p) - classes.begin());
    const bool up = at == 0 || (at + 1 < classes.size() && rng() % 2 == 0);
    const double q = classes[up ? at + 1 : at - 1];
    if (excluded.count(v) || degree[v] > max_degree) continue;
    if (first_row.at(ProbBits(p)) >= u || first_row.at(ProbBits(q)) >= u) {
      continue;
    }
    if (!picked.insert({u, v}).second) continue;
    pair.forward.update_probabilities.push_back({u, v, q});
    pair.backward.update_probabilities.push_back({u, v, p});
    const std::string edge = std::to_string(u) + "," + std::to_string(v) + ",";
    forward += (forward.empty() ? "" : ";") + edge + FormatProb(q);
    backward += (backward.empty() ? "" : ";") + edge + FormatProb(p);
  }
  if (picked.size() < kDeltaEdges) return {};
  pair.forward_line = "UPDATE " + graph + " PROB " + forward;
  pair.backward_line = "UPDATE " + graph + " PROB " + backward;

  // Belt and braces: the patched view must exist in both directions.
  auto mutated = vblock::ApplyDelta(g, pair.forward);
  if (!mutated.ok()) return {};
  std::vector<VertexId> out_rows, in_rows;
  vblock::ComputeChangedRows(g, *mutated, &out_rows, &in_rows);
  if (vblock::ProbGroupedView::DeltaPatched(g.GroupedView(), *mutated,
                                            out_rows, in_rows) == nullptr) {
    return {};
  }
  vblock::ComputeChangedRows(*mutated, g, &out_rows, &in_rows);
  if (vblock::ProbGroupedView::DeltaPatched(mutated->GroupedView(), g,
                                            out_rows, in_rows) == nullptr) {
    return {};
  }
  return pair;
}

}  // namespace perfbench
