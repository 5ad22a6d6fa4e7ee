// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Named, refcounted, immutable graph snapshots for the query service.
//
// A long-lived service answers many queries against few graphs; the
// registry is the one place those graphs live. Each registration produces
// an immutable Snapshot with a globally unique, monotonically increasing
// epoch. Handles are shared_ptr<const Snapshot>: replacing or removing a
// name never invalidates a handle an in-flight query still holds — the old
// snapshot simply dies with its last reference. Cache layers key on the
// epoch, so re-registering a name under fresh data invalidates every
// warmed pool of the old graph. The replace→evict contract: each mutating
// entry point reports the epoch it displaced (Add/Load* via the
// `replaced_epoch` out-param, Remove via `removed_epoch`, Apply via the
// returned previous snapshot), and the caller owning a PoolCache must
// either EvictGraph(old_epoch) or migrate the warm entries forward —
// otherwise dead-epoch bytes pin the cache budget until LRU pressure
// (ServiceSession does this on every replacing LOAD/UPDATE/EVICT).
//
// Apply() is the dynamic-graphs path: it mutates a registered snapshot
// with a GraphDelta (graph/graph_delta.h) into a fresh epoch, delta-
// patching the grouped view (ProbGroupedView::DeltaPatched) instead of
// re-analyzing the whole graph when the class table is stable. Epochs
// stay globally monotonic: the new epoch is drawn under the registry
// lock, so it is strictly greater than the epoch it replaces and than any
// epoch published earlier by any thread.
//
// One mutex guards the name → snapshot map and the epoch counter
// (docs/DESIGN.md §9); it is held only for a map operation, never while a
// graph is loaded, built or patched.
//
// Loading pre-warms Graph::GroupedView() by default so the first
// geometric-skip query doesn't pay the one-time grouping analysis.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "graph/graph_io.h"

namespace vblock {

/// Which probability model to assign after loading raw edges.
enum class ProbAssignment {
  kKeepFile,          // keep the probabilities the source provided
  kWeightedCascade,   // p(u,v) = 1/din(v)
  kTrivalency,        // p(u,v) uniform from {0.1, 0.01, 0.001}
  kConstant,          // every edge gets LoadOptions::constant_probability
};

/// Knobs shared by the registry's load entry points.
struct GraphLoadOptions {
  /// Edge-list parsing (file loads only).
  EdgeListReadOptions read;
  /// Probability model applied after the edges are in memory.
  ProbAssignment prob = ProbAssignment::kKeepFile;
  /// Probability for ProbAssignment::kConstant.
  double constant_probability = 0.1;
  /// Seed for the stochastic models (trivalency).
  uint64_t prob_seed = 1;
  /// Build the probability-grouped adjacency eagerly so the first
  /// geometric-skip query is already warm.
  bool warm_grouped_view = true;
};

/// Thread-safe name → immutable graph snapshot map.
class GraphRegistry {
 public:
  /// One registered graph. Immutable after construction; the epoch is
  /// unique across the registry's lifetime and strictly increases with
  /// registration order.
  struct Snapshot {
    std::string name;
    uint64_t epoch = 0;
    Graph graph;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  /// Registers `graph` under `name`, replacing any previous snapshot of
  /// that name (under a fresh epoch). Returns the new snapshot. When
  /// `replaced_epoch` is non-null it receives the epoch of the snapshot
  /// this call displaced, or 0 when the name was fresh — the caller must
  /// evict (or migrate) that epoch from any PoolCache it owns.
  SnapshotPtr Add(const std::string& name, Graph graph,
                  bool warm_grouped_view = true,
                  uint64_t* replaced_epoch = nullptr);

  /// Reads a SNAP-style edge list and registers it (see Add).
  Result<SnapshotPtr> LoadEdgeList(const std::string& name,
                                   const std::string& path,
                                   const GraphLoadOptions& options = {},
                                   uint64_t* replaced_epoch = nullptr);

  /// Instantiates a dataset-catalog stand-in (gen/dataset_catalog.h) at
  /// `scale` and registers it. NotFound when `dataset` names no catalog
  /// entry; InvalidArgument on a non-positive scale.
  Result<SnapshotPtr> LoadGenerated(const std::string& name,
                                    const std::string& dataset, double scale,
                                    uint64_t seed,
                                    const GraphLoadOptions& options = {},
                                    uint64_t* replaced_epoch = nullptr);

  /// Outcome of Apply(): the freshly installed snapshot plus the one the
  /// delta was applied to (previous->epoch is what cache layers must
  /// migrate or evict).
  struct ApplyOutcome {
    SnapshotPtr snapshot;
    SnapshotPtr previous;
  };

  /// Applies `delta` to the current snapshot of `name` and installs the
  /// mutated graph under a fresh (strictly larger) epoch. The heavy work —
  /// delta validation, CSR rebuild, grouped-view patching — runs outside
  /// the lock; if another thread replaces the name meanwhile, Apply
  /// refuses with FailedPrecondition instead of clobbering the newer
  /// snapshot (the delta was validated against data that no longer
  /// exists). NotFound when the name is absent, InvalidArgument when the
  /// delta is inconsistent with the snapshot.
  Result<ApplyOutcome> Apply(const std::string& name, const GraphDelta& delta,
                             bool warm_grouped_view = true);

  /// Snapshot registered under `name`; NotFound when absent.
  Result<SnapshotPtr> Get(const std::string& name) const;

  /// Unregisters `name`. Handles still held by in-flight queries keep the
  /// snapshot alive. Returns false when the name was not registered. When
  /// `removed_epoch` is non-null it receives the dead snapshot's epoch (0
  /// when the name was not registered) for cache eviction.
  bool Remove(const std::string& name, uint64_t* removed_epoch = nullptr);

  /// Registered names, sorted.
  std::vector<std::string> List() const;

  size_t size() const;

  /// Epochs handed out so far (registrations + Apply installs, including
  /// replaced and removed ones) — the monotonic `graph_epochs_installed`
  /// counter the metrics registry projects.
  uint64_t epochs_installed() const;

 private:
  SnapshotPtr Install(const std::string& name, Graph graph,
                      bool warm_grouped_view, uint64_t* replaced_epoch);

  mutable std::mutex mutex_;
  std::map<std::string, SnapshotPtr> graphs_;
  uint64_t next_epoch_ = 1;
};

}  // namespace vblock
