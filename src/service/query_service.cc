#include "service/query_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <new>
#include <utility>

#include "common/check.h"
#include "core/greedy.h"
#include "core/unified_instance.h"
#include "graph/graph_delta.h"
#include "graph/prob_grouped_view.h"

namespace vblock {
namespace {

// Ready future carrying an immediate (error) result.
std::future<Result<SolverResult>> ReadyFuture(Result<SolverResult> result) {
  std::promise<Result<SolverResult>> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

// Joins the solver's own time limit with the request deadline's remaining
// budget: whichever is tighter wins; non-positive values mean "none".
double EffectiveTimeLimit(double solver_limit, double deadline_remaining) {
  if (deadline_remaining <= 0) return solver_limit;
  if (solver_limit <= 0) return deadline_remaining;
  return std::min(solver_limit, deadline_remaining);
}

}  // namespace

QueryService::QueryService(GraphRegistry* registry,
                           const ServiceOptions& options)
    : registry_(registry),
      options_(options),
      cache_(options.cache),
      scheduler_(std::make_unique<ThreadPool>(
          std::max<uint32_t>(1, options.num_threads))) {
  VBLOCK_CHECK_MSG(registry != nullptr, "registry must not be null");
  RegisterMetrics();
}

QueryService::~QueryService() = default;

void QueryService::RegisterMetrics() {
  submitted_ = metrics_.GetCounter("vblock_requests_submitted_total",
                                   "Submit() calls accepted or not");
  invalid_ = metrics_.GetCounter(
      "vblock_requests_invalid_total",
      "Requests failing validation (unknown graph, bad query)");
  rejected_ = metrics_.GetCounter("vblock_requests_rejected_total",
                                  "Admission-control rejections");
  coalesced_ = metrics_.GetCounter(
      "vblock_requests_coalesced_total",
      "Riders attached to an identical in-flight computation");
  completed_ = metrics_.GetCounter("vblock_requests_completed_total",
                                   "Computations finished (any status)");
  deadline_expired_ =
      metrics_.GetCounter("vblock_requests_deadline_expired_total",
                          "Deadlines expired before execution started");
  latency_ = metrics_.GetHistogram("vblock_request_latency_seconds",
                                   "Submit-to-completion latency");
  pool_build_seconds_ = metrics_.GetFloatCounter(
      "vblock_pool_build_seconds_total",
      "Seconds spent cold-building theta-sample pools");
  for (uint32_t i = 0; i < obs::kNumSolveStages; ++i) {
    const std::string stage =
        obs::SolveStageName(static_cast<obs::SolveStage>(i));
    stage_seconds_[i] = metrics_.GetFloatCounter(
        "vblock_solve_stage_seconds_total{stage=\"" + stage + "\"}",
        "Seconds attributed to this solve stage (traced solves only)");
    stage_calls_[i] = metrics_.GetCounter(
        "vblock_solve_stage_calls_total{stage=\"" + stage + "\"}",
        "Stage invocations folded from traced solves");
  }

  // Queue state and derived rates project through callbacks so METRICS and
  // Stats() read the one source of truth instead of double-counting.
  metrics_.RegisterCallback(
      "vblock_queue_depth", "Accepted computations not yet started",
      obs::MetricType::kGauge, [this]() -> double {
        std::lock_guard<std::mutex> lock(mutex_);
        return queue_depth_;
      });
  metrics_.RegisterCallback(
      "vblock_in_flight", "Accepted computations not yet completed",
      obs::MetricType::kGauge, [this]() -> double {
        std::lock_guard<std::mutex> lock(mutex_);
        return in_flight_count_;
      });
  metrics_.RegisterCallback(
      "vblock_qps_60s", "Completions over the last 60 seconds / 60",
      obs::MetricType::kGauge, [this]() -> double {
        std::lock_guard<std::mutex> lock(mutex_);
        AdvanceRingLocked(static_cast<uint64_t>(uptime_.ElapsedSeconds()));
        uint64_t window = 0;
        for (uint32_t slot : qps_ring_) window += slot;
        return static_cast<double>(window) / 60.0;
      });
  metrics_.RegisterCallback("vblock_uptime_seconds",
                            "Seconds since service construction",
                            obs::MetricType::kGauge,
                            [this]() -> double {
                              return uptime_.ElapsedSeconds();
                            });

  // The pool cache keeps its own ledger (its entries==inserts−hits−
  // evictions−migrations invariant is test-pinned); the registry projects
  // it rather than mirroring it.
  metrics_.RegisterCallback("vblock_pool_hits_total", "Warm-pool cache hits",
                            obs::MetricType::kCounter, [this]() -> double {
                              return static_cast<double>(cache_.stats().hits);
                            });
  metrics_.RegisterCallback(
      "vblock_pool_misses_total", "Warm-pool cache misses",
      obs::MetricType::kCounter,
      [this]() -> double { return static_cast<double>(cache_.stats().misses); });
  metrics_.RegisterCallback("vblock_pool_inserts_total",
                            "Warm-pool cache insertions",
                            obs::MetricType::kCounter, [this]() -> double {
                              return static_cast<double>(
                                  cache_.stats().inserts);
                            });
  metrics_.RegisterCallback("vblock_pool_evictions_total",
                            "Warm-pool cache LRU/stale evictions",
                            obs::MetricType::kCounter, [this]() -> double {
                              return static_cast<double>(
                                  cache_.stats().evictions);
                            });
  metrics_.RegisterCallback("vblock_pool_migrations_total",
                            "Warm entries checked out for epoch migration",
                            obs::MetricType::kCounter, [this]() -> double {
                              return static_cast<double>(
                                  cache_.stats().migrations);
                            });
  metrics_.RegisterCallback("vblock_pool_evicted_stale_total",
                            "Stale-epoch drops (evicted or unmigratable)",
                            obs::MetricType::kCounter, [this]() -> double {
                              return static_cast<double>(
                                  cache_.stats().evicted_stale);
                            });
  metrics_.RegisterCallback("vblock_pool_bytes", "Warm-pool cache footprint",
                            obs::MetricType::kGauge, [this]() -> double {
                              return static_cast<double>(
                                  cache_.stats().bytes_in_use);
                            });
  metrics_.RegisterCallback("vblock_pool_entries",
                            "Warm-pool cache resident entries",
                            obs::MetricType::kGauge, [this]() -> double {
                              return static_cast<double>(
                                  cache_.stats().entries);
                            });
  metrics_.RegisterCallback(
      "vblock_graphs", "Graphs currently registered", obs::MetricType::kGauge,
      [this]() -> double { return static_cast<double>(registry_->size()); });
  metrics_.RegisterCallback("vblock_graph_epochs_installed_total",
                            "Graph epochs installed (loads + updates)",
                            obs::MetricType::kCounter, [this]() -> double {
                              return static_cast<double>(
                                  registry_->epochs_installed());
                            });

  // Network front-end cells, recorded by net/tcp_server.h (which re-Gets
  // them by name). Registered here so the METRICS name set is the same
  // for stdin and TCP serving (the smoke transcripts share one golden);
  // they stay zero without a front-end.
  metrics_.GetCounter("vblock_net_connections_total",
                      "TCP connections accepted");
  metrics_.GetGauge("vblock_net_active", "TCP connections currently open");
  metrics_.GetCounter("vblock_net_bytes_in_total",
                      "Bytes read from TCP clients");
  metrics_.GetCounter("vblock_net_bytes_out_total",
                      "Bytes written to TCP clients");
  metrics_.GetCounter("vblock_net_lines_total",
                      "Protocol lines received over TCP");
  metrics_.GetCounter("vblock_net_errors_total",
                      "TCP protocol/socket errors");
}

void QueryService::AdvanceRingLocked(uint64_t now_second) const {
  if (now_second <= ring_second_) return;
  // Zero every slot a completion-free second skipped; past 60 the whole
  // window is stale.
  const uint64_t gap = now_second - ring_second_;
  if (gap >= qps_ring_.size()) {
    qps_ring_.fill(0);
  } else {
    for (uint64_t s = ring_second_ + 1; s <= now_second; ++s) {
      qps_ring_[s % qps_ring_.size()] = 0;
    }
  }
  ring_second_ = now_second;
}

std::future<Result<SolverResult>> QueryService::Submit(
    const IminRequest& request) {
  return SubmitImpl(request, Callback());
}

void QueryService::SubmitWithCallback(const IminRequest& request,
                                      Callback done) {
  VBLOCK_CHECK_MSG(done != nullptr, "callback must not be null");
  SubmitImpl(request, std::move(done));
}

std::future<Result<SolverResult>> QueryService::SubmitImpl(
    const IminRequest& request, Callback done) {
  // Immediate (error) delivery: through the callback when present,
  // otherwise as a ready future.
  auto deliver_now = [&done](Result<SolverResult> result) {
    if (done) {
      done(result);
      return std::future<Result<SolverResult>>();
    }
    return ReadyFuture(std::move(result));
  };

  submitted_->Increment();

  Result<GraphRegistry::SnapshotPtr> snapshot = registry_->Get(request.graph);
  if (!snapshot.ok()) {
    invalid_->Increment();
    return deliver_now(snapshot.status());
  }
  const Graph& g = (*snapshot)->graph;

  const SolverOptions resolved =
      ResolveSolverOptions(request.query, options_.defaults);
  Status valid = ValidateIminQuery(g, request.query.seeds, resolved);
  if (valid.ok() && !std::isfinite(request.deadline_seconds)) {
    // Deadlines land in the ordered dedup key; NaN would break the map's
    // strict weak ordering (hung futures), so reject it at the door.
    valid = Status::InvalidArgument("deadline must be finite");
  }
  if (!valid.ok()) {
    invalid_->Increment();
    return deliver_now(std::move(valid));
  }

  CompKey comp_key;
  comp_key.graph_epoch = (*snapshot)->epoch;
  comp_key.budget = request.query.budget;
  comp_key.deadline_seconds = request.deadline_seconds;
  comp_key.query =
      CanonicalQueryKey(request.query.seeds, request.query.algorithm, resolved);

  // Tracing is excluded from CompKey (it never changes result bits), so a
  // traced request could find an untraced in-flight twin — which has no
  // trace to give it. Keep the contract simple: traced computations never
  // coalesce and never enter the dedup map.
  const bool traced = request.query.trace || options_.defaults.trace;

  std::shared_ptr<Computation> comp;
  std::future<Result<SolverResult>> future;
  Status rejected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Deadline-free untraced requests may ride an identical in-flight
    // computation; deadlined ones never coalesce (each owns its clock)
    // and never enter the dedup map. Riders are free — they occupy no
    // queue slot and skip admission control.
    if (request.deadline_seconds == 0 && !traced) {
      auto it = in_flight_.find(comp_key);
      if (it != in_flight_.end()) {
        coalesced_->Increment();
        it->second->waiters.emplace_back();
        Waiter& rider = it->second->waiters.back();
        if (done) {
          rider.callback = std::move(done);
          return std::future<Result<SolverResult>>();
        }
        return rider.promise.get_future();
      }
    }
    if (queue_depth_ >= options_.max_queue) {
      rejected_->Increment();
      rejected = Status::ResourceExhausted(
          "queue full (" + std::to_string(options_.max_queue) +
          " pending computations)");
    } else if (in_flight_count_ >= options_.max_in_flight) {
      rejected_->Increment();
      rejected = Status::ResourceExhausted(
          "too many computations in flight (max " +
          std::to_string(options_.max_in_flight) + ")");
    } else {
      comp = std::make_shared<Computation>();
      comp->key = comp_key;
      comp->snapshot = *snapshot;
      comp->trace = traced;
      comp->waiters.emplace_back();
      if (done) {
        comp->waiters.back().callback = std::move(done);
      } else {
        future = comp->waiters.back().promise.get_future();
      }
      if (request.deadline_seconds == 0 && !traced) {
        comp->tracked = true;
        in_flight_.emplace(std::move(comp_key), comp);
      }
      ++queue_depth_;
      ++in_flight_count_;
    }
  }
  // Rejections deliver outside the lock: a synchronous callback is allowed
  // to call back into the service (e.g. STATS for an overload report).
  if (!rejected.ok()) return deliver_now(std::move(rejected));

  scheduler_->Submit([this, comp] { Execute(comp); });
  return future;
}

Result<SolverResult> QueryService::SubmitAndWait(const IminRequest& request) {
  return Submit(request).get();
}

void QueryService::Execute(const std::shared_ptr<Computation>& comp) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --queue_depth_;
  }

  const double deadline = comp->key.deadline_seconds;
  const bool expired =
      deadline > 0 && comp->submitted.ElapsedSeconds() >= deadline;
  auto run = [&]() -> Result<SolverResult> {
    if (expired) {
      return Status::DeadlineExceeded("request deadline (" +
                                      std::to_string(deadline) +
                                      "s) expired before execution");
    }
    // A request whose pool cannot be allocated (a θ far beyond memory)
    // fails alone. The entry it held is dropped during unwinding, never
    // cached.
    try {
      return Compute(*comp);
    } catch (const std::bad_alloc&) {
      return Status::ResourceExhausted("out of memory computing this query");
    }
  };
  Result<SolverResult> result = run();

  // Fold this solve's stage attribution into the service-lifetime cells —
  // the vblock_solve_stage_* series accumulate across traced requests.
  uint64_t trace_id = 0;
  if (result.ok()) {
    const SolverResult& r = *result;
    if (r.stats.pool_build_seconds > 0) {
      pool_build_seconds_->Add(r.stats.pool_build_seconds);
    }
    if (r.trace) {
      trace_id = r.trace->id();
      for (const obs::SolveTrace::StageTotal& t : r.trace->Totals()) {
        const auto i = static_cast<uint32_t>(t.stage);
        stage_seconds_[i]->Add(static_cast<double>(t.nanos) * 1e-9);
        stage_calls_[i]->Increment(t.calls);
      }
    } else if (r.stats.migrate_seconds > 0) {
      // A checkout migration is write-path work deferred onto this
      // request; the migrate cells count every one, traced or not.
      const auto i = static_cast<uint32_t>(obs::SolveStage::kMigrate);
      stage_seconds_[i]->Add(r.stats.migrate_seconds);
      stage_calls_[i]->Increment();
    }
  }

  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (comp->tracked) in_flight_.erase(comp->key);
    --in_flight_count_;
    completed_->Increment();
    if (expired) deadline_expired_->Increment();
    const uint64_t now_second =
        static_cast<uint64_t>(uptime_.ElapsedSeconds());
    AdvanceRingLocked(now_second);
    ++qps_ring_[now_second % qps_ring_.size()];
    waiters = std::move(comp->waiters);
  }
  // One latency sample per request (riders included), each measured from
  // its own Submit and recorded before its delivery so a waiter observing
  // its future always finds its own sample in the snapshot. The slow-query
  // sink and callbacks run outside the lock (both may re-enter the
  // service).
  for (auto& waiter : waiters) {
    const double seconds = waiter.submitted.ElapsedSeconds();
    latency_->Record(seconds);
    MaybeLogSlow(*comp, seconds, trace_id, result.status());
    if (waiter.callback) {
      waiter.callback(result);
    } else {
      waiter.promise.set_value(result);
    }
  }
}

void QueryService::MaybeLogSlow(const Computation& comp,
                                double latency_seconds, uint64_t trace_id,
                                const Status& status) const {
  if (options_.slow_query_ms == 0) return;
  const double ms = latency_seconds * 1e3;
  if (ms < static_cast<double>(options_.slow_query_ms)) return;
  char ms_buf[32];
  std::snprintf(ms_buf, sizeof(ms_buf), "%.1f", ms);
  std::string line = "slow_query ms=";
  line += ms_buf;
  line += " graph=";
  line += comp.snapshot->name;
  line += " alg=";
  line += AlgorithmName(comp.key.query.algorithm);
  line += " budget=";
  line += std::to_string(comp.key.budget);
  line += " trace_id=";
  line += std::to_string(trace_id);
  line += " status=";
  line += StatusCodeName(status.code());
  if (options_.slow_log) {
    options_.slow_log(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

Result<SolverResult> QueryService::Compute(const Computation& comp) {
  const QueryKey& key = comp.key.query;
  double remaining = 0;
  if (comp.key.deadline_seconds > 0) {
    remaining = std::max(
        1e-9, comp.key.deadline_seconds - comp.submitted.ElapsedSeconds());
  }
  const double time_limit =
      EffectiveTimeLimit(key.time_limit_seconds, remaining);

  // The shared key→options inverse, plus the request-deadline-derived
  // time limit (which may be tighter than the key's own).
  SolverOptions opts =
      SolverOptionsForKey(key, comp.key.budget, options_.defaults.threads);
  opts.time_limit_seconds = time_limit;
  std::optional<PoolCache::Key> pool_key =
      PoolCache::KeyFor(comp.snapshot->epoch, key);
  if (!pool_key.has_value() || comp.key.budget == 0) {
    // Heuristics, BaselineGreedy, and trivial budgets: no warmable pool —
    // the standalone facade already is the cheapest path. It allocates the
    // trace itself; only the wire-visible id comes from the service.
    opts.trace = comp.trace;
    Result<SolverResult> result =
        SolveImin(comp.snapshot->graph, key.seeds, opts);
    if (result.ok() && (*result).trace) {
      (*result).trace->set_id(
          trace_seq_.fetch_add(1, std::memory_order_relaxed));
    }
    return result;
  }

  // AG/GR: the one solve path on this key's cached entry, or on a fresh
  // one (unified and built inside SolveGreedy) on a miss.
  Deadline deadline(time_limit);
  std::shared_ptr<obs::SolveTrace> trace;
  if (comp.trace) {
    trace = std::make_shared<obs::SolveTrace>();
    trace->set_id(trace_seq_.fetch_add(1, std::memory_order_relaxed));
  }
  std::unique_ptr<WarmEntry> entry = cache_.Acquire(*pool_key);
  const PoolOutcome pool =
      entry != nullptr ? PoolOutcome::kWarm : PoolOutcome::kCold;
  if (entry == nullptr) entry = std::make_unique<WarmEntry>();
  SolverResult result = SolveGreedy(comp.snapshot->graph, key.seeds, opts,
                                    deadline, trace.get(), entry.get());
  result.pool = pool;
  result.trace = std::move(trace);

  // Check the engine back in restored to its freshly built state — the
  // next request for this key skips the θ-sample build entirely. The
  // restore runs HERE, before this computation's futures are fulfilled:
  // deferring it past fulfillment would let a fast sequential client's
  // repeated SOLVE race the checkin and miss, breaking the deterministic
  // warm-hit contract the cache exists for. It puts the touched samples
  // back from the engine's undo log — no draw, no dominator tree, no
  // deadline — so it costs index and Δ bookkeeping over the samples this
  // run touched and cannot fail. An entry without an engine (GR on a sink
  // seed, cold) is not cached. A deadline latch mid-build or mid-run
  // poisons the engine (partial update); such entries are dropped rather
  // than cached. So is an entry whose epoch an UPDATE displaced while this
  // request ran: no request could hit it again.
  SpreadDecreaseEngine* const engine = entry->engine.get();
  if (engine != nullptr && !engine->timed_out()) {
    engine->Restore();
    // Restore above still ran traced (its kRestore span belongs to this
    // request); the pointer MUST clear before the engine outlives the
    // request's trace in the cache.
    engine->set_trace(nullptr);
    // Cached entries must not pin per-slot scratch; the engine grows it
    // again when next needed.
    engine->TrimScratch();
    CheckIn(comp.snapshot->name, *pool_key, std::move(entry));
  }
  return result;
}

bool QueryService::CheckIn(const std::string& graph,
                           const PoolCache::Key& key,
                           std::unique_ptr<WarmEntry> entry) {
  return cache_.Release(key, std::move(entry), [&] {
    Result<GraphRegistry::SnapshotPtr> installed = registry_->Get(graph);
    return installed.ok() && (*installed)->epoch == key.graph_epoch;
  });
}

namespace {

// The UPDATE's share of carrying one warm entry to `to`, the graph that
// replaced the entry's epoch: the checks that decide whether it can be
// carried, and the in-place swap of its unified graph. Re-deriving the
// samples waits for the entry's next checkout (SolveGreedy); the changed
// rows wait in the entry. Returns false when the entry must be dropped.
bool CarryForward(const Graph& to, const QueryKey& query, WarmEntry* entry) {
  if (!entry->inst || !entry->engine || entry->engine->timed_out()) {
    return false;
  }
  UnifiedInstance& inst = *entry->inst;

  // Re-unify against the mutated graph. The warm pool is only valid if
  // the unified id space is bit-identical to the old one: same vertex
  // count (the delta added no vertex the super-seed construction keeps)
  // and same root slot. Otherwise every sample's vertex ids would be
  // misinterpreted — drop, rebuild cold. The id maps are a function of
  // the vertex count and the seed set alone, so they then agree too.
  UnifiedInstance fresh = UnifySeeds(to, query.seeds);
  if (fresh.graph.NumVertices() != inst.graph.NumVertices() ||
      fresh.root != inst.root) {
    return false;
  }
  VBLOCK_DCHECK(fresh.to_original == inst.to_original);

  std::vector<VertexId> changed_out, changed_in;
  ComputeChangedRows(inst.graph, fresh.graph, &changed_out, &changed_in);

  // The skip samplers read the grouped adjacency; patch the old unified
  // view forward so unchanged rows keep their analyzed runs. When the
  // class table is unstable (DeltaPatched returns nullptr) the entry
  // CANNOT be carried: a vertex's grouped edge order is its row sorted
  // by *global* class id, so a reordered class table permutes even
  // untouched vertices' grouped adjacency — a cold build on the mutated
  // graph would then map the same RNG stream onto different edges, and
  // the kept unaffected samples would no longer match it bit-for-bit
  // (tests/dynamic_graph_test.cc pins this drop). Per-edge-coin pools
  // never consult the view and migrate regardless.
  if (query.sampler_kind != SamplerKind::kPerEdgeCoin) {
    auto patched = ProbGroupedView::DeltaPatched(
        inst.graph.GroupedView(), fresh.graph, changed_out, changed_in);
    if (patched == nullptr) return false;
    fresh.graph.InstallGroupedView(std::move(patched));
  }

  // In-place content swap: the engine and its pool hold references to
  // inst.graph, so the Graph object must keep its address — only its
  // CSR arrays (and grouped-view slot) move. The swap frees the view the
  // parked engine's samplers were bound to; rebind them.
  inst.graph = std::move(fresh.graph);
  entry->engine->TrimScratch();
  // A sample that read no row of the union already equals a cold draw on
  // the newest graph, however many updates it lagged.
  entry->AddPendingRows(changed_out, changed_in);
  return true;
}

}  // namespace

QueryService::MigrationOutcome QueryService::MigrateEpoch(
    const GraphRegistry::SnapshotPtr& to,
    const GraphRegistry::SnapshotPtr& from) {
  auto taken = cache_.TakeEpoch(from->epoch);
  // The entries are independent: carry them as one executor loop. An
  // entry that cannot be carried is freed in the loop and counted below.
  ParallelFor(static_cast<uint32_t>(taken.size()), options_.defaults.threads,
              [&](uint32_t, uint32_t begin, uint32_t end) {
                for (uint32_t i = begin; i < end; ++i) {
                  auto& [key, entry] = taken[i];
                  if (entry && !CarryForward(to->graph, key.query,
                                             entry.get())) {
                    entry.reset();
                  }
                }
              });
  // Check-ins run in key order, so the LRU order (and any eviction the
  // byte budget forces) does not depend on scheduling. A later UPDATE
  // that already displaced `to` turns a check-in into a drop.
  MigrationOutcome outcome;
  for (auto& [key, entry] : taken) {
    if (entry == nullptr) {
      cache_.CountStaleDrop();
      ++outcome.dropped;
      continue;
    }
    PoolCache::Key new_key = key;
    new_key.graph_epoch = to->epoch;
    if (CheckIn(to->name, new_key, std::move(entry))) {
      ++outcome.migrated;
    } else {
      ++outcome.dropped;
    }
  }
  return outcome;
}

Result<double> QueryService::Evaluate(const EvalRequest& request) const {
  Result<GraphRegistry::SnapshotPtr> snapshot = registry_->Get(request.graph);
  if (!snapshot.ok()) return snapshot.status();
  const Graph& g = (*snapshot)->graph;
  if (request.seeds.empty()) {
    return Status::InvalidArgument("seed set must not be empty");
  }
  for (VertexId v : request.seeds) {
    if (v >= g.NumVertices()) {
      return Status::OutOfRange("seed id " + std::to_string(v) +
                                " out of range");
    }
  }
  for (VertexId v : request.blockers) {
    if (v >= g.NumVertices()) {
      return Status::OutOfRange("blocker id " + std::to_string(v) +
                                " out of range");
    }
  }
  if (request.options.mc_rounds == 0) {
    return Status::InvalidArgument("Monte-Carlo rounds must be positive");
  }
  return EvaluateSpread(g, request.seeds, request.blockers, request.options);
}

}  // namespace vblock
