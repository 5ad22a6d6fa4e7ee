// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Unified metrics registry: named counters, gauges, and histograms with
// cheap atomic recording and snapshot iteration.
//
// The registry is the one place a metric lives: components register
// instruments once (stable pointers; recording is one atomic or one
// short mutex hold) or register a callback that projects an existing ledger
// into the snapshot, and every consumer — the STATS line, the METRICS
// Prometheus exposition, tests — reads the same Snapshot(). A second
// component records into a cell by re-Getting its name (the TCP
// front-end does this for the vblock_net_* cells its service registers).
//
// Instrument taxonomy:
//  * Counter        — monotonic uint64; recording is one relaxed atomic
//                     add.
//  * FloatCounter   — monotonic double (seconds totals); CAS-loop add.
//  * Gauge          — instantaneous int64, Set/Add.
//  * HistogramMetric— distribution over common/histogram.h buckets under
//                     one mutex.
//  * callbacks      — registered functions evaluated at Snapshot() that
//                     project derived or externally-owned values (cache
//                     ledger sums, registry sizes, sliding-window rates)
//                     without double-counting state.
//
// Naming follows Prometheus conventions: counters end in `_total`, units
// are spelled out (`_seconds`, `_bytes`). A single label can be baked
// into the registered name (`stage="pool_build"` style); the exposition
// groups samples of one family (name up to '{') under one HELP/TYPE
// header. Names must match [a-zA-Z_][a-zA-Z0-9_]* before any '{'.
//
// Thread safety: instrument registration takes the registry mutex;
// recording through the returned pointers never does. Snapshot() is safe
// against concurrent recording (counters are read with relaxed loads; a
// snapshot is a point-in-time view, not a linearized cut across
// instruments).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace vblock::obs {

/// Monotonic counter: one relaxed atomic.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Monotonic double counter (stage-seconds totals). Add is a CAS loop —
/// uncontended in practice (folded once per completed solve, not per
/// sample).
class FloatCounter {
 public:
  void Add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Instantaneous signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Distribution instrument over the fixed log-scale bucket layout of
/// common/histogram.h. The Histogram itself is not synchronized, so
/// recording and reading lock one mutex; Value() copies it for snapshots.
class HistogramMetric {
 public:
  void Record(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.Record(value);
  }

  Histogram Value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

 private:
  mutable std::mutex mutex_;
  Histogram histogram_;
};

/// Exposition type of one registered metric.
enum class MetricType { kCounter, kGauge, kHistogram };

/// Point-in-time view of one metric (Snapshot() output).
struct MetricSnapshot {
  std::string name;  // full name, label suffix included
  std::string help;
  MetricType type = MetricType::kCounter;
  /// Scalar value (counters/gauges; unused for histograms).
  double value = 0;
  /// Bucketed distribution (histograms only).
  Histogram histogram;
};

/// Named instrument registry. Get* registers on first use and returns a
/// stable pointer (the instrument outlives every snapshot; the registry
/// must outlive every recorder). Re-Get of a name returns the same cell —
/// that is what makes "STATS reads the same counter the exposition
/// scrapes" hold by construction.
class MetricsRegistry {
 public:
  using CallbackFn = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Counter cell for `name` (convention: name ends in `_total`).
  Counter* GetCounter(const std::string& name, const std::string& help);

  /// Monotonic double counter (seconds totals; exposed as a counter).
  FloatCounter* GetFloatCounter(const std::string& name,
                                const std::string& help);

  Gauge* GetGauge(const std::string& name, const std::string& help);

  HistogramMetric* GetHistogram(const std::string& name,
                                const std::string& help);

  /// Registers (or replaces) a callback evaluated at Snapshot() time.
  /// `type` selects the exposition type (counter callbacks must be
  /// monotonic projections of an external ledger). Replacement keeps the
  /// metric set stable when a component re-binds its source.
  void RegisterCallback(const std::string& name, const std::string& help,
                        MetricType type, CallbackFn fn);

  /// Point-in-time view of every registered metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Process-global default registry for embedders that do not own a
  /// component with its own (the QueryService owns one per instance so
  /// two services in one process never mix totals).
  static MetricsRegistry& Default();

 private:
  struct Entry {
    std::string help;
    MetricType type = MetricType::kCounter;
    // Exactly one of these is set, matching how the entry was registered.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<FloatCounter> float_counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    CallbackFn callback;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// The metric named `name` (label suffix included) in a Snapshot()
/// result, or nullptr when it is absent. Binary search: the snapshot is
/// sorted by name.
const MetricSnapshot* FindMetric(const std::vector<MetricSnapshot>& snapshot,
                                 std::string_view name);

/// Renders a snapshot in the Prometheus text exposition format:
/// `# HELP` / `# TYPE` once per family (name up to '{'), one sample line
/// per scalar metric, and the full `_bucket{le=...}` / `_sum` / `_count`
/// expansion for histograms. Ends with the "# EOF" terminator line
/// (OpenMetrics-style; also the framing sentinel the line protocol's
/// METRICS response uses) with NO trailing newline — the REPL/TCP writer
/// appends the final one.
std::string RenderPrometheusText(const std::vector<MetricSnapshot>& snapshot);

}  // namespace vblock::obs
