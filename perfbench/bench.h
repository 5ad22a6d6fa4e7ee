// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Shared pieces of the vblock benchmark: workload descriptions, raw-sample
// statistics, the metric list printed as the result, and the in-memory
// span log behind the traced run.
//
// Everything here lives outside the library on purpose: the benchmark times
// the public entry points (QueryService, TcpServer, GraphRegistry,
// SamplePool, DominatorWorkspace, SpreadDecreaseEngine) from the outside,
// so it can judge a change to any of them without being part of it.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "service/graph_registry.h"

namespace perfbench {

using vblock::Algorithm;
using vblock::VertexId;

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t begin_nanos) {
  return static_cast<double>(NowNanos() - begin_nanos) * 1e-9;
}

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span dump into.
  std::string out_dir = ".";
  /// Self-test of the correctness gate: drops one blocker from every
  /// reference, so every answer must be counted as wrong.
  bool wrong_reference = false;
};

/// One SOLVE: seed set, algorithm, budget, θ. Everything else is the
/// service default (SEED 1, REUSE resample, SAMPLER skip, threads 1).
struct Query {
  std::vector<VertexId> seeds;  // sorted ascending
  Algorithm algorithm = Algorithm::kAdvancedGreedy;
  uint32_t budget = 10;
  uint32_t theta = 1000;

  friend bool operator<(const Query& a, const Query& b) {
    return std::tie(a.seeds, a.algorithm, a.budget, a.theta) <
           std::tie(b.seeds, b.algorithm, b.budget, b.theta);
  }
};

/// The standalone solver options a Query resolves to under the service
/// defaults — the reference every served answer must equal.
vblock::SolverOptions ReferenceOptions(const Query& q);

/// The protocol line for a Query against graph `graph`.
std::string SolveLine(const std::string& graph, const Query& q, bool trace);

/// A fixed workload: which graph, which algorithm and sizes, which front
/// end. Request orders (and cold_solve's seed sets) come from the run's
/// seed.
struct WorkloadSpec {
  std::string name;
  std::string dataset;
  double scale = 1.0;
  vblock::ProbAssignment model = vblock::ProbAssignment::kWeightedCascade;
  Algorithm algorithm = Algorithm::kAdvancedGreedy;
  uint32_t theta = 1000;
  std::vector<uint32_t> budgets;
  /// Hot keys pre-warmed in set-up (0 = every request is a new seed set).
  uint32_t hot_keys = 0;
  /// Loopback TcpServer front end instead of the in-process QueryService.
  bool served = false;
  uint32_t service_workers = 1;
  /// Open-loop UPDATE rate of the served writer connection.
  double updates_per_second = 0;
};

/// Looks a workload up by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Nearest-rank percentile of raw samples (q in (0,1]); 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()) +
                                    0.999999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Metrics in print order: name -> (value, unit).
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// In-memory span log of the traced run (main thread only). A span is a
/// timed public call into one layer; its name is "<layer>.<call>". Spans
/// nest through an open-span stack, and spans of one request share a
/// request id. Nothing is written until WriteJson at the end of the run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t begin = 0;
    uint64_t end = 0;
    int32_t parent = -1;
    uint64_t request = 0;
  };

  int32_t Open(std::string name, uint64_t request = 0) {
    Span s;
    s.name = std::move(name);
    s.begin = NowNanos();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request != 0 || stack_.empty()
                    ? request
                    : spans_[static_cast<size_t>(stack_.back())].request;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  /// Closes span `index` (the innermost open one) and returns its length
  /// in nanoseconds.
  uint64_t Close(int32_t index) {
    Span& s = spans_[static_cast<size_t>(index)];
    s.end = NowNanos();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
    return s.end - s.begin;
  }
  /// Records an already-measured span under the innermost open span.
  void Add(std::string name, uint64_t begin, uint64_t end,
           uint64_t request = 0) {
    Span s;
    s.name = std::move(name);
    s.begin = begin;
    s.end = end;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (the name's prefix before the first '.'): each
  /// span's length minus the part its child spans cover, in seconds.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span plus the per-layer self-time summary as one JSON
  /// document. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a null log makes it a no-op.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, uint64_t request = 0) : log_(log) {
    if (log_ != nullptr) index_ = log_->Open(std::move(name), request);
  }
  ~Scope() { Stop(); }
  /// Ends the span early; returns its length in nanoseconds (0 if off).
  uint64_t Stop() {
    if (log_ == nullptr || index_ < 0) return 0;
    const uint64_t nanos = log_->Close(index_);
    index_ = -1;
    return nanos;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

/// Draws `count` distinct vertices from `pool` (with its own RNG stream).
std::vector<VertexId> DrawSeedSet(const std::vector<VertexId>& pool,
                                  uint32_t count, std::mt19937_64* rng);

/// Edges one UPDATE changes: several, so its cost averages over where the
/// changed rows sit.
inline constexpr size_t kDeltaEdges = 8;

/// A class-table-stable probability change on kDeltaEdges edges and its
/// inverse:
/// applying `forward` then `backward` restores the graph bit for bit, and
/// neither destabilizes the grouped view's class table (so warm pools
/// migrate instead of being dropped). Drawn from `seed`; checked with
/// ProbGroupedView::DeltaPatched before use.
struct DeltaPair {
  vblock::GraphDelta forward;
  vblock::GraphDelta backward;
  std::string forward_line;   // "UPDATE <graph> PROB u,v,p;u,v,p;..."
  std::string backward_line;
};
DeltaPair MakeStableDelta(const vblock::Graph& g, const std::string& graph,
                          const std::set<VertexId>& excluded, uint64_t seed);

}  // namespace perfbench
