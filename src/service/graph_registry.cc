#include "service/graph_registry.h"

#include <utility>

#include "gen/dataset_catalog.h"
#include "graph/prob_grouped_view.h"
#include "prob/probability_models.h"

namespace vblock {
namespace {

Graph ApplyProbModel(Graph g, const GraphLoadOptions& options) {
  switch (options.prob) {
    case ProbAssignment::kKeepFile:
      return g;
    case ProbAssignment::kWeightedCascade:
      return WithWeightedCascade(g);
    case ProbAssignment::kTrivalency:
      return WithTrivalency(g, options.prob_seed);
    case ProbAssignment::kConstant:
      return WithConstantProbability(g, options.constant_probability);
  }
  return g;
}

}  // namespace

GraphRegistry::SnapshotPtr GraphRegistry::Install(const std::string& name,
                                                  Graph graph,
                                                  bool warm_grouped_view,
                                                  uint64_t* replaced_epoch) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->name = name;
  snapshot->graph = std::move(graph);
  // Warm after the move so the view (whether transferred in by the move
  // or built fresh here) is ready on the snapshot before it is published.
  if (warm_grouped_view) snapshot->graph.GroupedView();
  std::lock_guard<std::mutex> lock(mutex_);
  // Epoch drawn under the lock: replacing a name is thereby guaranteed to
  // publish a strictly larger epoch than its predecessor's.
  snapshot->epoch = next_epoch_++;
  auto [it, inserted] = graphs_.try_emplace(name, snapshot);
  if (replaced_epoch != nullptr) {
    *replaced_epoch = inserted ? 0 : it->second->epoch;
  }
  if (!inserted) it->second = snapshot;
  return snapshot;
}

GraphRegistry::SnapshotPtr GraphRegistry::Add(const std::string& name,
                                              Graph graph,
                                              bool warm_grouped_view,
                                              uint64_t* replaced_epoch) {
  return Install(name, std::move(graph), warm_grouped_view, replaced_epoch);
}

Result<GraphRegistry::SnapshotPtr> GraphRegistry::LoadEdgeList(
    const std::string& name, const std::string& path,
    const GraphLoadOptions& options, uint64_t* replaced_epoch) {
  Result<Graph> graph = ReadEdgeList(path, options.read);
  if (!graph.ok()) return graph.status();
  return Install(name, ApplyProbModel(std::move(*graph), options),
                 options.warm_grouped_view, replaced_epoch);
}

Result<GraphRegistry::SnapshotPtr> GraphRegistry::LoadGenerated(
    const std::string& name, const std::string& dataset, double scale,
    uint64_t seed, const GraphLoadOptions& options,
    uint64_t* replaced_epoch) {
  if (!(scale > 0.0) || scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1], got " +
                                   std::to_string(scale));
  }
  const DatasetSpec* spec = FindDataset(dataset);
  if (spec == nullptr) {
    return Status::NotFound("unknown dataset '" + dataset + "'");
  }
  return Install(name,
                 ApplyProbModel(MakeDataset(*spec, scale, seed), options),
                 options.warm_grouped_view, replaced_epoch);
}

Result<GraphRegistry::ApplyOutcome> GraphRegistry::Apply(
    const std::string& name, const GraphDelta& delta, bool warm_grouped_view) {
  Result<SnapshotPtr> current = Get(name);
  if (!current.ok()) return current.status();
  const SnapshotPtr previous = *current;

  // Heavy work outside the lock: validate + rebuild the CSR, then
  // carry the grouped view forward. The delta patch recomputes only the
  // per-vertex runs the changed rows touch; when the class table is
  // unstable (a probability value vanished or appeared out of order) the
  // view is analyzed from scratch instead.
  Result<Graph> mutated = ApplyDelta(previous->graph, delta);
  if (!mutated.ok()) return mutated.status();

  auto snapshot = std::make_shared<Snapshot>();
  snapshot->name = name;
  snapshot->graph = std::move(*mutated);
  if (warm_grouped_view) {
    std::vector<VertexId> changed_out, changed_in;
    ComputeChangedRows(previous->graph, snapshot->graph, &changed_out,
                       &changed_in);
    auto patched = ProbGroupedView::DeltaPatched(
        previous->graph.GroupedView(), snapshot->graph, changed_out,
        changed_in);
    if (patched != nullptr) {
      snapshot->graph.InstallGroupedView(std::move(patched));
    } else {
      snapshot->graph.GroupedView();
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end() || it->second != previous) {
    return Status::FailedPrecondition(
        "graph '" + name + "' was concurrently replaced during Apply");
  }
  snapshot->epoch = next_epoch_++;
  it->second = snapshot;
  return ApplyOutcome{snapshot, previous};
}

Result<GraphRegistry::SnapshotPtr> GraphRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no graph named '" + name + "'");
  }
  return it->second;
}

bool GraphRegistry::Remove(const std::string& name, uint64_t* removed_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    if (removed_epoch != nullptr) *removed_epoch = 0;
    return false;
  }
  if (removed_epoch != nullptr) *removed_epoch = it->second->epoch;
  graphs_.erase(it);
  return true;
}

std::vector<std::string> GraphRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, snapshot] : graphs_) names.push_back(name);
  return names;
}

size_t GraphRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

uint64_t GraphRegistry::epochs_installed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_epoch_ - 1;
}

}  // namespace vblock
