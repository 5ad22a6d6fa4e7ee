// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Observability layer tests: instrument exactness under concurrency,
// registry pointer stability and snapshot ordering, the Prometheus text
// exposition, SolveTrace span/cell semantics, the trace-on == trace-off
// differential (solver and warm service path), and the STATS ↔ registry
// reconciliation that makes the two read paths one.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "obs/solve_trace.h"
#include "prob/probability_models.h"
#include "service/graph_registry.h"
#include "service/protocol.h"
#include "service/query_service.h"

namespace vblock {
namespace {

using obs::MetricSnapshot;
using obs::MetricType;
using obs::MetricsRegistry;
using obs::ScopedSpan;
using obs::SolveStage;
using obs::SolveTrace;

// ------------------------------------------------------------ instruments --

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(FloatCounterTest, ConcurrentAddsSumExactly) {
  obs::FloatCounter counter;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add(0.25);
    });
  }
  for (std::thread& t : threads) t.join();
  // 0.25 is exactly representable; the sum is exact regardless of order.
  EXPECT_EQ(counter.Value(), kThreads * kPerThread * 0.25);
}

TEST(GaugeTest, SetAndAdd) {
  obs::Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
}

TEST(HistogramMetricTest, ConcurrentRecordsMergeToExactCount) {
  obs::HistogramMetric metric;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metric, t] {
      for (int i = 0; i < kPerThread; ++i) {
        metric.Record(0.001 * (t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(metric.Value().count(), uint64_t{kThreads * kPerThread});
}

// --------------------------------------------------------------- registry --

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x_total", "X.");
  obs::Counter* b = registry.GetCounter("x_total", "X.");
  EXPECT_EQ(a, b);  // same cell: STATS and METRICS read the same totals
  a->Increment(5);
  EXPECT_EQ(b->Value(), 5u);

  obs::HistogramMetric* h1 = registry.GetHistogram("lat_seconds", "L.");
  obs::HistogramMetric* h2 = registry.GetHistogram("lat_seconds", "L.");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zz_total", "Z.");
  registry.GetGauge("aa", "A.");
  registry.GetFloatCounter("mm_seconds_total", "M.");
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "aa");
  EXPECT_EQ(snapshot[1].name, "mm_seconds_total");
  EXPECT_EQ(snapshot[2].name, "zz_total");
}

TEST(MetricsRegistryTest, CallbackIsEvaluatedAtSnapshotAndReplaceable) {
  MetricsRegistry registry;
  int calls = 0;
  registry.RegisterCallback("cb", "C.", MetricType::kGauge,
                            [&calls] { return double(++calls); });
  EXPECT_EQ(calls, 0);  // lazy: registration does not evaluate
  EXPECT_EQ(registry.Snapshot()[0].value, 1.0);
  EXPECT_EQ(registry.Snapshot()[0].value, 2.0);
  // Re-registration replaces (a front-end re-binding its source must not
  // grow the metric set or double-report).
  registry.RegisterCallback("cb", "C.", MetricType::kGauge,
                            [] { return 42.0; });
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].value, 42.0);
}

// ------------------------------------------------------------- exposition --

TEST(PrometheusTest, ScalarExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("test_requests_total", "Requests.")->Increment(3);
  registry.GetGauge("test_depth", "Depth.")->Set(-2);
  EXPECT_EQ(obs::RenderPrometheusText(registry.Snapshot()),
            "# HELP test_depth Depth.\n"
            "# TYPE test_depth gauge\n"
            "test_depth -2\n"
            "# HELP test_requests_total Requests.\n"
            "# TYPE test_requests_total counter\n"
            "test_requests_total 3\n"
            "# EOF");
}

TEST(PrometheusTest, LabeledFamilySharesOneHeader) {
  MetricsRegistry registry;
  registry.GetCounter("test_stage_seconds_total{stage=\"a\"}", "S.");
  registry.GetCounter("test_stage_seconds_total{stage=\"b\"}", "S.");
  const std::string text = obs::RenderPrometheusText(registry.Snapshot());
  size_t headers = 0, from = 0;
  while ((from = text.find("# TYPE test_stage_seconds_total", from)) !=
         std::string::npos) {
    ++headers;
    ++from;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_NE(text.find("test_stage_seconds_total{stage=\"a\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_stage_seconds_total{stage=\"b\"} 0\n"),
            std::string::npos);
}

TEST(PrometheusTest, HistogramExpansionIsCumulativeAndConsistent) {
  MetricsRegistry registry;
  obs::HistogramMetric* h = registry.GetHistogram("lat_seconds", "L.");
  h->Record(0.001);
  h->Record(0.010);
  h->Record(1000.0);
  const std::string text = obs::RenderPrometheusText(registry.Snapshot());
  // +Inf bucket equals _count; the renderer ends with the bare "# EOF"
  // terminator (no trailing newline — the wire writer appends it).
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum "), std::string::npos);
  EXPECT_EQ(text.rfind("# EOF"), text.size() - 5);

  // Cumulative monotonicity across every rendered bucket.
  uint64_t previous = 0;
  size_t pos = 0;
  while ((pos = text.find("lat_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const size_t space = text.find(' ', pos);
    const size_t eol = text.find('\n', space);
    const uint64_t value =
        std::stoull(text.substr(space + 1, eol - space - 1));
    EXPECT_GE(value, previous) << text.substr(pos, eol - pos);
    previous = value;
    pos = eol;
  }
}

// ------------------------------------------------------------- SolveTrace --

TEST(SolveTraceTest, NullScopedSpanIsANoop) {
  ScopedSpan span(nullptr, SolveStage::kPoolBuild);  // must not crash
}

TEST(SolveTraceTest, SpansNestWithDepthAndEnclosingTime) {
  SolveTrace trace;
  {
    ScopedSpan outer(&trace, SolveStage::kPoolBuild);
    {
      ScopedSpan inner(&trace, SolveStage::kSampleDraw);
    }
  }
  ASSERT_EQ(trace.num_spans(), 2u);
  const SolveTrace::Span* spans = trace.spans();
  EXPECT_EQ(spans[0].stage, SolveStage::kPoolBuild);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].stage, SolveStage::kSampleDraw);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_LE(spans[0].begin_nanos, spans[1].begin_nanos);
  EXPECT_GE(spans[0].end_nanos, spans[1].end_nanos);
  EXPECT_NE(spans[0].end_nanos, 0u);
  // The enclosing stage accumulated at least the inner stage's time.
  EXPECT_GE(trace.stage_nanos(SolveStage::kPoolBuild),
            trace.stage_nanos(SolveStage::kSampleDraw));
}

TEST(SolveTraceTest, TotalsReportsNonzeroStagesInEnumOrder) {
  SolveTrace trace;
  trace.Add(SolveStage::kSelect, 30);
  trace.Add(SolveStage::kUnify, 10);
  trace.Add(SolveStage::kSelect, 5, 2);
  const std::vector<SolveTrace::StageTotal> totals = trace.Totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].stage, SolveStage::kUnify);
  EXPECT_EQ(totals[0].nanos, 10u);
  EXPECT_EQ(totals[0].calls, 1u);
  EXPECT_EQ(totals[1].stage, SolveStage::kSelect);
  EXPECT_EQ(totals[1].nanos, 35u);
  EXPECT_EQ(totals[1].calls, 3u);
}

TEST(SolveTraceTest, SpanOverflowIsCountedNotStored) {
  SolveTrace trace;
  for (uint32_t i = 0; i < SolveTrace::kMaxSpans + 6; ++i) {
    ScopedSpan span(&trace, SolveStage::kScore);
  }
  EXPECT_EQ(trace.num_spans(), SolveTrace::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 6u);
  // Cells still saw every span: overflow loses the log entry only.
  EXPECT_EQ(trace.stage_calls(SolveStage::kScore),
            uint64_t{SolveTrace::kMaxSpans + 6});
}

TEST(SolveTraceTest, AddIsThreadSafeAndExact) {
  SolveTrace trace;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trace.Add(SolveStage::kSampleDraw, 3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.stage_calls(SolveStage::kSampleDraw),
            kThreads * kPerThread);
  EXPECT_EQ(trace.stage_nanos(SolveStage::kSampleDraw),
            3 * kThreads * kPerThread);
}

// ------------------------------------------- trace-on == trace-off (core) --

Graph TestGraph() {
  return WithWeightedCascade(GenerateBarabasiAlbert(300, 3, /*seed=*/7));
}

void ExpectSameBits(const SolverResult& a, const SolverResult& b) {
  EXPECT_EQ(a.blockers, b.blockers);
  EXPECT_EQ(a.stats.selection_trace, b.stats.selection_trace);
  EXPECT_EQ(a.stats.rounds_completed, b.stats.rounds_completed);
  EXPECT_EQ(a.stats.replacements, b.stats.replacements);
  EXPECT_EQ(a.stats.timed_out, b.stats.timed_out);
}

TEST(TraceDifferentialTest, SolverResultsAreBitIdenticalWithTracing) {
  const Graph g = TestGraph();
  const std::vector<VertexId> seeds = {1, 2, 3};
  for (const Algorithm algorithm :
       {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace,
        Algorithm::kBaselineGreedy}) {
    SolverOptions options;
    options.algorithm = algorithm;
    options.budget = 4;
    options.theta = 300;
    options.mc_rounds = 120;
    options.seed = 11;
    options.threads = 2;
    options.sample_reuse = SampleReuse::kPrune;

    Result<SolverResult> off = SolveImin(g, seeds, options);
    ASSERT_TRUE(off.ok()) << off.status().message();
    EXPECT_EQ(off->trace, nullptr);

    options.trace = true;
    Result<SolverResult> on = SolveImin(g, seeds, options);
    ASSERT_TRUE(on.ok()) << on.status().message();
    ExpectSameBits(*on, *off);

    ASSERT_NE(on->trace, nullptr);
    const std::vector<SolveTrace::StageTotal> totals = on->trace->Totals();
    EXPECT_FALSE(totals.empty());
    EXPECT_GT(on->trace->stage_calls(SolveStage::kUnify), 0u);
    if (algorithm == Algorithm::kBaselineGreedy) {
      // BG has no pool: its stochastic work is per-estimate Monte-Carlo.
      EXPECT_GT(on->trace->stage_calls(SolveStage::kSampleDraw), 0u);
    } else {
      EXPECT_GT(on->trace->stage_nanos(SolveStage::kPoolBuild), 0u);
      EXPECT_GT(on->trace->stage_calls(SolveStage::kSelect), 0u);
    }
  }
}

// ---------------------------------------------- service path + reconcile --

ServiceOptions FastOptions() {
  ServiceOptions options;
  options.num_threads = 2;
  options.defaults.theta = 200;
  options.defaults.mc_rounds = 200;
  options.defaults.seed = 11;
  return options;
}

IminRequest MakeRequest(bool trace) {
  IminRequest request;
  request.graph = "g";
  request.query.seeds = {1, 2, 3};
  request.query.budget = 4;
  request.query.algorithm = Algorithm::kGreedyReplace;
  request.query.sample_reuse = SampleReuse::kPrune;
  request.query.trace = trace;
  return request;
}

TEST(TraceDifferentialTest, WarmServicePathIsBitIdenticalWithTracing) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  Result<SolverResult> cold = service.SubmitAndWait(MakeRequest(false));
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  Result<SolverResult> warm = service.SubmitAndWait(MakeRequest(false));
  ASSERT_TRUE(warm.ok());
  ExpectSameBits(*warm, *cold);
  EXPECT_EQ(warm->trace, nullptr);

  // The traced request rides the same warm pool and must not perturb it.
  Result<SolverResult> traced = service.SubmitAndWait(MakeRequest(true));
  ASSERT_TRUE(traced.ok()) << traced.status().message();
  ExpectSameBits(*traced, *cold);
  ASSERT_NE(traced->trace, nullptr);
  EXPECT_GT(traced->trace->id(), 0u);  // service-assigned trace id
  // Warm hit: no pool build, but selection and restore ran under trace.
  EXPECT_GT(traced->trace->stage_calls(SolveStage::kSelect), 0u);
  EXPECT_GT(traced->trace->stage_calls(SolveStage::kRestore), 0u);
  EXPECT_EQ(traced->trace->stage_calls(SolveStage::kPoolBuild), 0u);

  // ...and the warm path afterwards still reproduces the cold bits.
  Result<SolverResult> after = service.SubmitAndWait(MakeRequest(false));
  ASSERT_TRUE(after.ok());
  ExpectSameBits(*after, *cold);
}

std::map<std::string, double> ScalarsByName(
    const std::vector<MetricSnapshot>& snapshot) {
  std::map<std::string, double> out;
  for (const MetricSnapshot& m : snapshot) {
    if (m.type != MetricType::kHistogram) out[m.name] = m.value;
  }
  return out;
}

// "OK k=v k=v ..." → ordered (key, value) pairs.
std::vector<std::pair<std::string, std::string>> StatsFields(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream in(line);
  std::string token;
  in >> token;  // "OK"
  while (in >> token) {
    const size_t eq = token.find('=');
    out.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return out;
}

std::string Fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

TEST(ReconcileTest, StatsAndRegistrySnapshotAgreeExactly) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  // A mixed workload: cold solve, warm repeat, traced repeat, an invalid
  // request (unknown graph), a heuristic solve.
  ASSERT_TRUE(service.SubmitAndWait(MakeRequest(false)).ok());
  ASSERT_TRUE(service.SubmitAndWait(MakeRequest(false)).ok());
  ASSERT_TRUE(service.SubmitAndWait(MakeRequest(true)).ok());
  IminRequest bad = MakeRequest(false);
  bad.graph = "nope";
  EXPECT_FALSE(service.SubmitAndWait(bad).ok());
  IminRequest od = MakeRequest(false);
  od.query.algorithm = Algorithm::kOutDegree;
  od.query.budget = 2;
  ASSERT_TRUE(service.SubmitAndWait(od).ok());

  // STATS is a projection of one snapshot: every field reads its named
  // cell, qps is completed / uptime, and the lat_* fields are the latency
  // histogram's mean and quantiles.
  const std::vector<MetricSnapshot> snapshot = service.Stats();
  const std::map<std::string, double> m = ScalarsByName(snapshot);
  const auto fields = StatsFields(FormatStats(snapshot, registry.size()));
  const std::vector<std::pair<std::string, std::string>> cells = {
      {"graphs", "vblock_graphs"},
      {"submitted", "vblock_requests_submitted_total"},
      {"completed", "vblock_requests_completed_total"},
      {"coalesced", "vblock_requests_coalesced_total"},
      {"rejected", "vblock_requests_rejected_total"},
      {"invalid", "vblock_requests_invalid_total"},
      {"deadline_expired", "vblock_requests_deadline_expired_total"},
      {"queue_depth", "vblock_queue_depth"},
      {"in_flight", "vblock_in_flight"},
      {"pool_hits", "vblock_pool_hits_total"},
      {"pool_misses", "vblock_pool_misses_total"},
      {"pool_inserts", "vblock_pool_inserts_total"},
      {"pool_evictions", "vblock_pool_evictions_total"},
      {"pool_migrations", "vblock_pool_migrations_total"},
      {"pool_evicted_stale", "vblock_pool_evicted_stale_total"},
      {"pool_entries", "vblock_pool_entries"},
      {"pool_bytes", "vblock_pool_bytes"},
      {"net_connections", "vblock_net_connections_total"},
      {"net_active", "vblock_net_active"},
      {"net_bytes_in", "vblock_net_bytes_in_total"},
      {"net_bytes_out", "vblock_net_bytes_out_total"},
      {"net_lines", "vblock_net_lines_total"},
      {"net_errors", "vblock_net_errors_total"},
  };
  const std::vector<std::string> derived = {
      "uptime_s",   "qps",        "qps60",     "lat_mean_ms",
      "lat_p50_ms", "lat_p90_ms", "lat_p99_ms"};
  ASSERT_EQ(fields.size(), cells.size() + derived.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(fields[i].first, cells[i].first);
    EXPECT_EQ(fields[i].second, Fixed(m.at(cells[i].second), 0))
        << fields[i].first;
  }
  for (size_t i = 0; i < derived.size(); ++i) {
    EXPECT_EQ(fields[cells.size() + i].first, derived[i]);
  }
  std::map<std::string, std::string> by_name(fields.begin(), fields.end());
  const double uptime = m.at("vblock_uptime_seconds");
  EXPECT_EQ(by_name["uptime_s"], Fixed(uptime, 3));
  EXPECT_EQ(by_name["qps"],
            Fixed(m.at("vblock_requests_completed_total") / uptime, 1));
  EXPECT_EQ(by_name["qps60"], Fixed(m.at("vblock_qps_60s"), 1));
  const Histogram latency =
      obs::FindMetric(snapshot, "vblock_request_latency_seconds")->histogram;
  EXPECT_EQ(by_name["lat_mean_ms"], Fixed(latency.mean() * 1e3, 3));
  EXPECT_EQ(by_name["lat_p50_ms"], Fixed(latency.Quantile(0.50) * 1e3, 3));
  EXPECT_EQ(by_name["lat_p90_ms"], Fixed(latency.Quantile(0.90) * 1e3, 3));
  EXPECT_EQ(by_name["lat_p99_ms"], Fixed(latency.Quantile(0.99) * 1e3, 3));

  // Sanity on the projected values themselves.
  EXPECT_EQ(by_name["submitted"], "5");
  EXPECT_EQ(by_name["invalid"], "1");
  EXPECT_EQ(by_name["completed"], "4");
  EXPECT_EQ(by_name["queue_depth"], "0");
  EXPECT_EQ(by_name["in_flight"], "0");
  EXPECT_EQ(by_name["net_connections"], "0");  // no front-end
  // Every completion delivered to a waiter recorded one latency sample
  // (invalid requests never enter the histogram).
  EXPECT_EQ(latency.count(), 4u);
  // The traced solve folded its per-stage time into the registry.
  EXPECT_GT(m.at("vblock_solve_stage_seconds_total{stage=\"select\"}"), 0.0);
  EXPECT_GT(m.at("vblock_solve_stage_calls_total{stage=\"select\"}"), 0.0);
  // Sliding-window rate: completions landed inside the last 60 seconds.
  EXPECT_GT(m.at("vblock_qps_60s"), 0.0);
}

TEST(ReconcileTest, MetricsNameSetIsFixedAtConstruction) {
  GraphRegistry registry;
  QueryService service(&registry, FastOptions());
  const std::vector<MetricSnapshot> before = service.metrics().Snapshot();
  registry.Add("g", TestGraph());
  ASSERT_TRUE(service.SubmitAndWait(MakeRequest(true)).ok());
  const std::vector<MetricSnapshot> after = service.metrics().Snapshot();
  // No solve registers a new name: the METRICS exposition is structurally
  // stable from the first scrape (the CI smoke diff relies on this).
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].name, after[i].name);
  }
}

}  // namespace
}  // namespace vblock
