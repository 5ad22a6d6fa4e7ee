// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Admission-controlled, in-process async IMIN query service.
//
// The library's entry points (core/solver.h, core/batch_solver.h) are
// one-shot: every call pays unification + θ-sampling + scoring from
// scratch. A long-lived service answering many queries against few graphs
// can do much better, and this class is that layer:
//
//  * requests resolve a named graph snapshot from a GraphRegistry and are
//    executed asynchronously on a common/thread_pool task queue
//    (Submit returns a std::future immediately);
//  * admission control bounds the backlog — max_queue pending tasks,
//    max_in_flight admitted-but-unfinished computations — and rejects
//    overload with a typed ResourceExhausted status instead of queueing
//    unboundedly;
//  * identical concurrent requests (same graph epoch, canonical QueryKey,
//    budget, deadline class) are coalesced onto ONE computation whose
//    result fans out to every waiter;
//  * per-request deadlines map onto the algorithms' cooperative time_limit
//    plumbing: a request whose deadline expires while still queued fails
//    fast with DeadlineExceeded, and one that starts late runs under the
//    remaining budget only;
//  * AG/GR solves check a warmed engine out of a PoolCache — a hit skips
//    the entire θ-sample build — and check it back in restored
//    (SpreadDecreaseEngine::Restore), so a repeated SOLVE never re-draws
//    its samples.
//
// Determinism contract (docs/DESIGN.md §8): for a fixed request, the
// returned SolverResult is bit-identical to the standalone
// SolveImin(graph, seeds, resolved options) call — warm or cold, for any
// num_threads, at any submission order, coalesced or not — except
// stats.seconds (wall time of this execution). Deadlines are the one
// wall-clock-dependent input; requests that never hit them are unaffected.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/batch_solver.h"
#include "core/evaluator.h"
#include "core/solver.h"
#include "obs/metrics.h"
#include "obs/solve_trace.h"
#include "service/graph_registry.h"
#include "service/pool_cache.h"

namespace vblock {

/// One IMIN query against a registered graph. `query` carries the seed
/// set, budget, algorithm, and per-request solver-knob overrides exactly
/// like a batch query (core/batch_solver.h).
struct IminRequest {
  /// GraphRegistry name the query targets.
  std::string graph;
  IminQuery query;
  /// Submission-to-completion budget in seconds (0 = none). Expiring while
  /// queued fails the request with DeadlineExceeded; the part spent queued
  /// is deducted from the solver's cooperative time limit otherwise.
  double deadline_seconds = 0;
};

/// A spread evaluation (EvaluateSpread) against a registered graph.
struct EvalRequest {
  std::string graph;
  std::vector<VertexId> seeds;
  std::vector<VertexId> blockers;
  EvaluationOptions options;
};

/// Service configuration.
struct ServiceOptions {
  /// Requests running at once (the scheduler's worker threads). Their
  /// θ-loops share the process executor's helpers (common/thread_pool.h)
  /// rather than spawning threads of their own, so a busy service adds
  /// only ExecutorWidth() − 1 threads beyond these.
  uint32_t num_threads = 2;
  /// Pending (accepted but not started) computation cap; Submit beyond it
  /// is rejected with ResourceExhausted.
  uint32_t max_queue = 256;
  /// Admitted-but-unfinished computation cap (queued + running).
  uint32_t max_in_flight = 512;
  /// Warm-pool cache byte budget.
  PoolCache::Options cache;
  /// Default solver knobs for fields a request does not override
  /// (`algorithm` and `budget` are per-request). `threads` caps the
  /// executor slots of one solve's loops and never changes results; it
  /// defaults to the executor's width, so a lone request gets every core.
  SolverOptions defaults = [] {
    SolverOptions d;
    d.threads = ExecutorWidth();
    return d;
  }();
  /// Slow-query log threshold in milliseconds (0 = disabled). A completed
  /// request whose submit→completion latency reaches the threshold emits
  /// one structured line (`slow_query ms=... graph=... alg=... budget=...
  /// trace_id=... status=...`) through `slow_log`.
  uint64_t slow_query_ms = 0;
  /// Sink for slow-query lines (no trailing newline). Defaults to stderr.
  /// Invoked from worker threads; must be thread-safe and non-blocking.
  std::function<void(const std::string&)> slow_log;
};

/// Long-lived, thread-safe query service over a GraphRegistry. The
/// registry must outlive the service. Destruction drains: every admitted
/// computation completes and fulfills its futures before the destructor
/// returns.
class QueryService {
 public:
  explicit QueryService(GraphRegistry* registry,
                        const ServiceOptions& options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Validates and schedules `request`. The future is always fulfilled:
  /// with the solve result, or a typed error —
  ///   NotFound            unknown graph name
  ///   InvalidArgument /
  ///   OutOfRange          ValidateIminQuery failures (θ=0 for AG/GR and
  ///                       MC 0 for BG included), non-finite deadline
  ///   ResourceExhausted   admission control (queue/in-flight caps)
  ///   DeadlineExceeded    request deadline expired before execution
  /// Invalid and rejected requests resolve immediately and never occupy a
  /// queue slot. Identical concurrent deadline-free requests coalesce onto
  /// one computation (every waiter receives a copy of its result, and its
  /// own latency sample); requests with a deadline always compute
  /// individually, because each is entitled to its own clock.
  std::future<Result<SolverResult>> Submit(const IminRequest& request);

  /// Completion callback alternative to the future (the TCP front-end's
  /// event loop cannot block on futures).
  using Callback = std::function<void(const Result<SolverResult>&)>;

  /// Exactly like Submit, but delivers the result by invoking `done`
  /// exactly once — synchronously (from inside this call) for requests
  /// that resolve immediately (validation errors, admission rejections),
  /// otherwise from a worker thread when the computation completes. The
  /// callback must not block and must not re-enter the service
  /// synchronously from the worker path.
  void SubmitWithCallback(const IminRequest& request, Callback done);

  /// Submit + wait. Convenience for synchronous callers (REPL, tests).
  Result<SolverResult> SubmitAndWait(const IminRequest& request);

  /// Synchronous spread evaluation against a registered graph (Monte-Carlo
  /// or exact per request.options; runs on the calling thread).
  Result<double> Evaluate(const EvalRequest& request) const;

  /// What MigrateEpoch did with the displaced epoch's warm entries.
  struct MigrationOutcome {
    /// Entries carried forward: re-keyed to the new epoch with their
    /// unified graph swapped in place and the changed rows recorded; the
    /// next checkout re-derives the samples that read one.
    uint64_t migrated = 0;
    /// Entries that could not be carried (vertex count grew, grouped-view
    /// class table destabilized, engine poisoned, `to` itself already
    /// displaced) and were dropped; the next query for their key rebuilds
    /// cold.
    uint64_t dropped = 0;
  };

  /// Epoch migration (docs/DESIGN.md §11): carries the warm pools keyed to
  /// `from` forward to `to`, where `to` is the registry snapshot that
  /// replaced `from` via GraphRegistry::Apply. For each warm entry, as one
  /// executor loop, the seeds are re-unified against the mutated graph;
  /// when the unified id space is unchanged (same vertex count and root)
  /// the entry's grouped view is delta-patched, its unified graph is
  /// swapped in place — the engine and pool hold references, so addresses
  /// must not move — and the changed rows join the entry's pending union
  /// (WarmEntry::pending_out/pending_in). No sample is re-drawn here: the
  /// first SOLVE that checks the entry out re-derives exactly the samples
  /// whose draws read a pending row (SolveGreedy → MigrateGraph), leaving
  /// the engine bit-identical to one cold-built on the newest graph
  /// however many updates it lagged (tests/dynamic_graph_test.cc and
  /// tests/service_test.cc prove this differentially), so the determinism
  /// contract survives updates. Entries that cannot be carried are dropped
  /// (counted under pool_cache().stats().evicted_stale) and rebuild cold
  /// on next use. Thread-safe; call after Apply has published `to`.
  MigrationOutcome MigrateEpoch(const GraphRegistry::SnapshotPtr& to,
                                const GraphRegistry::SnapshotPtr& from);

  /// Point-in-time view of the service's metrics registry — the cells
  /// METRICS scrapes and STATS formats (FormatStats in
  /// service/protocol.h). Each cell is read once, so a snapshot taken
  /// under load is not a linearized cut across cells.
  std::vector<obs::MetricSnapshot> Stats() const {
    return metrics_.Snapshot();
  }

  /// This service's metrics registry — the one source of STATS and
  /// METRICS. Per-instance (not the process Default()) so concurrent
  /// services never mix totals. The vblock_net_* cells are registered at
  /// construction; net/tcp_server.h records into them by re-Getting the
  /// same names.
  obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Warm-pool cache (eviction control, direct stats).
  PoolCache& pool_cache() { return cache_; }

  /// The scheduling pool (tests pin admission control by parking its
  /// workers; the REPL reports its queue depth).
  ThreadPool& scheduler() { return *scheduler_; }

  const ServiceOptions& options() const { return options_; }

 private:
  // Key identifying computations that may share one execution: everything
  // that determines the result bits.
  struct CompKey {
    uint64_t graph_epoch = 0;
    uint32_t budget = 0;
    double deadline_seconds = 0;
    QueryKey query;

    bool operator<(const CompKey& o) const {
      return std::tie(graph_epoch, budget, deadline_seconds, query) <
             std::tie(o.graph_epoch, o.budget, o.deadline_seconds, o.query);
    }
  };

  struct Waiter {
    // Exactly one delivery channel per waiter: `callback` when non-empty,
    // the promise otherwise.
    std::promise<Result<SolverResult>> promise;
    Callback callback;
    Timer submitted;  // this waiter's own queue wait + execution latency
  };

  struct Computation {
    CompKey key;
    GraphRegistry::SnapshotPtr snapshot;
    Timer submitted;  // first submitter's clock: drives the deadline
    // Only deadline-free computations enter the dedup map — a rider would
    // otherwise inherit the first submitter's deadline clock and time out
    // while its own submission-to-completion budget still had slack.
    bool tracked = false;
    // Collect a per-stage SolveTrace. NOT part of CompKey (tracing never
    // changes result bits); traced computations skip the dedup map
    // entirely — see SubmitImpl.
    bool trace = false;
    std::vector<Waiter> waiters;
  };

  // Shared Submit/SubmitWithCallback body. With an empty callback returns
  // the promise-backed future; with a callback returns an empty future and
  // wires delivery through it instead.
  std::future<Result<SolverResult>> SubmitImpl(const IminRequest& request,
                                               Callback done);

  void Execute(const std::shared_ptr<Computation>& comp);
  Result<SolverResult> Compute(const Computation& comp);

  // Checks `entry` into the cache under `key` unless `graph` no longer has
  // key.graph_epoch installed, in which case it is dropped as stale.
  // Returns whether it was checked in.
  bool CheckIn(const std::string& graph, const PoolCache::Key& key,
               std::unique_ptr<WarmEntry> entry);

  // Registers every metric the service exports — called once from the
  // constructor so the METRICS name set is fixed at construction (the
  // smoke transcripts depend on a deterministic name set).
  void RegisterMetrics();

  // Zeroes ring slots for seconds that elapsed without completions and
  // advances the cursor to `now_second`. Caller holds mutex_.
  void AdvanceRingLocked(uint64_t now_second) const;

  // Emits one structured slow-query line when the threshold is configured
  // and latency_seconds reaches it.
  void MaybeLogSlow(const Computation& comp, double latency_seconds,
                    uint64_t trace_id, const Status& status) const;

  GraphRegistry* registry_;
  ServiceOptions options_;
  PoolCache cache_;
  Timer uptime_;

  // The registry and the cells the service records into; monotonic
  // counters live ONLY here. queue_depth_/in_flight_count_ stay plain
  // ints under mutex_ (admission control reads them together) and are
  // projected through callbacks.
  mutable obs::MetricsRegistry metrics_;
  obs::Counter* submitted_ = nullptr;
  obs::Counter* invalid_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* coalesced_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* deadline_expired_ = nullptr;
  obs::HistogramMetric* latency_ = nullptr;  // seconds
  obs::FloatCounter* pool_build_seconds_ = nullptr;
  std::array<obs::FloatCounter*, obs::kNumSolveStages> stage_seconds_{};
  std::array<obs::Counter*, obs::kNumSolveStages> stage_calls_{};
  std::atomic<uint64_t> trace_seq_{1};  // per-request trace ids

  mutable std::mutex mutex_;
  std::map<CompKey, std::shared_ptr<Computation>> in_flight_;
  uint32_t queue_depth_ = 0;      // accepted, not yet started
  uint32_t in_flight_count_ = 0;  // accepted, not yet completed
  // Sliding-window completion ring: one slot per second of the last 60,
  // indexed by (uptime second % 60). Guarded by mutex_; mutable so the
  // qps_60s metric callback can expire slots.
  mutable std::array<uint32_t, 60> qps_ring_{};
  mutable uint64_t ring_second_ = 0;

  // Declared last: destroyed first, draining all tasks while the members
  // above are still alive.
  std::unique_ptr<ThreadPool> scheduler_;
};

}  // namespace vblock
