#include "sampling/sample_pool.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace vblock {

SamplePool::SamplePool(const Graph& g, VertexId root, const Options& options,
                       const TriggeringModel* model,
                       const VertexMask* build_blocked)
    : graph_(g),
      root_(root),
      options_(options),
      model_(model),
      build_blocked_(build_blocked ? *build_blocked
                                   : VertexMask(g.NumVertices())),
      blocked_(build_blocked_),
      samples_(options.theta),
      revision_(options.theta, 0),
      touched_(options.theta, 0) {
  VBLOCK_CHECK_MSG(root < g.NumVertices(), "root out of range");
  VBLOCK_CHECK_MSG(options.theta > 0, "theta must be positive");
  VBLOCK_CHECK_MSG(build_blocked_.size() == g.NumVertices(),
                   "mask size must match vertex count");
  VBLOCK_CHECK_MSG(!build_blocked_.Test(root), "the root cannot be blocked");
}

SamplePool::Scratch SamplePool::MakeScratch() const {
  Scratch scratch;
  if (model_) {
    scratch.triggering_sampler = std::make_unique<TriggeringSampler>(
        graph_, *model_, root_, &blocked_, options_.sampler_kind);
  } else {
    scratch.ic_sampler = std::make_unique<ReachableSampler>(
        graph_, root_, &blocked_, options_.sampler_kind);
  }
  return scratch;
}

void SamplePool::DrawFresh(uint32_t i, Scratch* scratch) {
  const uint64_t stream = MixSeed(options_.seed, i);
  Rng rng(revision_[i] == 0 ? stream : MixSeed(stream, revision_[i]));
  if (model_) {
    scratch->triggering_sampler->Sample(rng, &samples_[i]);
  } else {
    scratch->ic_sampler->Sample(rng, &samples_[i]);
  }
}

void SamplePool::PruneFromPristine(uint32_t i, Scratch* scratch) {
  const auto nv = static_cast<uint32_t>(ext_par_[i + 1] - ext_par_[i]);
  const uint32_t* offsets = arena_offsets_.data() + ext_off_[i];
  const VertexId* targets = arena_targets_.data() + ext_tgt_[i];
  const VertexId* parents = arena_parents_.data() + ext_par_[i];

  if (scratch->visit_epoch.size() < nv) {
    scratch->visit_epoch.resize(nv, 0);
    scratch->local_id.resize(nv);
  }
  const uint32_t epoch = ++scratch->epoch;

  SampledGraph& out = samples_[i];
  out.Clear();
  scratch->pristine_of.clear();

  // BFS over the stored live edges in pristine-local id space, skipping
  // blocked vertices; local ids are re-densified so the output is a
  // self-contained SampledGraph like a fresh draw.
  scratch->visit_epoch[0] = epoch;
  scratch->local_id[0] = 0;
  out.to_parent.push_back(parents[0]);
  scratch->pristine_of.push_back(0);
  for (uint32_t new_u = 0; new_u < scratch->pristine_of.size(); ++new_u) {
    const uint32_t pu = scratch->pristine_of[new_u];
    for (uint32_t e = offsets[pu]; e < offsets[pu + 1]; ++e) {
      const uint32_t pv = targets[e];
      if (blocked_.Test(parents[pv])) continue;
      uint32_t new_v;
      if (scratch->visit_epoch[pv] == epoch) {
        new_v = scratch->local_id[pv];
      } else {
        scratch->visit_epoch[pv] = epoch;
        new_v = static_cast<uint32_t>(out.to_parent.size());
        scratch->local_id[pv] = new_v;
        out.to_parent.push_back(parents[pv]);
        scratch->pristine_of.push_back(pv);
      }
      out.targets.push_back(new_v);
    }
    out.offsets.push_back(static_cast<uint32_t>(out.targets.size()));
  }
}

void SamplePool::DeriveSample(uint32_t i, Scratch* scratch) {
  if (revision_[i] == 0) {
    DrawFresh(i, scratch);  // initial draw, identical in both modes
  } else if (options_.reuse == SampleReuse::kPrune) {
    PruneFromPristine(i, scratch);
  } else {
    DrawFresh(i, scratch);
  }
  ++revision_[i];
}

void SamplePool::BuildPristineArena() {
  const uint32_t theta = options_.theta;
  arena_offsets_.clear();
  arena_targets_.clear();
  arena_parents_.clear();
  ext_off_.clear();
  ext_tgt_.clear();
  ext_par_.clear();

  uint64_t total_vertices = 0, total_edges = 0;
  for (const SampledGraph& s : samples_) {
    total_vertices += s.to_parent.size();
    total_edges += s.targets.size();
  }
  arena_offsets_.reserve(total_vertices + theta);
  arena_targets_.reserve(total_edges);
  arena_parents_.reserve(total_vertices);
  ext_off_.reserve(theta + 1);
  ext_tgt_.reserve(theta + 1);
  ext_par_.reserve(theta + 1);
  ext_off_.push_back(0);
  ext_tgt_.push_back(0);
  ext_par_.push_back(0);
  for (const SampledGraph& s : samples_) {
    arena_offsets_.insert(arena_offsets_.end(), s.offsets.begin(),
                          s.offsets.end());
    arena_targets_.insert(arena_targets_.end(), s.targets.begin(),
                          s.targets.end());
    arena_parents_.insert(arena_parents_.end(), s.to_parent.begin(),
                          s.to_parent.end());
    ext_off_.push_back(arena_offsets_.size());
    ext_tgt_.push_back(arena_targets_.size());
    ext_par_.push_back(arena_parents_.size());
  }

  // Static pristine inverted index (counting sort; sample ids end up
  // ascending within each vertex's slice). Slot 0 (the root) is skipped —
  // the root is in every sample and can never be blocked.
  pristine_begin_.assign(graph_.NumVertices() + 1, 0);
  for (uint32_t i = 0; i < theta; ++i) {
    for (uint64_t k = ext_par_[i] + 1; k < ext_par_[i + 1]; ++k) {
      ++pristine_begin_[arena_parents_[k] + 1];
    }
  }
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    pristine_begin_[v + 1] += pristine_begin_[v];
  }
  pristine_index_.resize(pristine_begin_[graph_.NumVertices()]);
  std::vector<uint64_t> cursor(pristine_begin_.begin(),
                               pristine_begin_.end() - 1);
  for (uint32_t i = 0; i < theta; ++i) {
    for (uint64_t k = ext_par_[i] + 1; k < ext_par_[i + 1]; ++k) {
      pristine_index_[cursor[arena_parents_[k]]++] = i;
    }
  }
}

void SamplePool::FinalizeBuild() {
  if (options_.reuse == SampleReuse::kPrune) BuildPristineArena();
  index_.assign(graph_.NumVertices(), {});
  index_pos_.assign(options_.theta, {});
}

void SamplePool::BeginMigrate(std::span<const VertexId> changed_out,
                              std::span<const VertexId> changed_in,
                              std::vector<uint32_t>* dirty) {
  const uint32_t theta = options_.theta;
  std::vector<uint8_t> affected(theta, 0);
  bool all = false;
  auto mark = [&](VertexId v) {
    VBLOCK_DCHECK(v < graph_.NumVertices());
    if (v == root_) {
      // The root is in every sample but skipped by the dynamic index.
      all = true;
      return;
    }
    for (const IndexEntry& entry : index_[v]) affected[entry.sample] = 1;
  };
  for (VertexId v : changed_out) mark(v);
  // An IC draw reads only the out-rows of region vertices, and every
  // changed in-row comes with its source's changed out-row. A triggering
  // draw also reads v's in-row whenever a region vertex has an edge into
  // v: it draws v's trigger set whether or not v turns live. Every such
  // region vertex is an in-neighbour of v in the mutated graph, or lost
  // its edge to v and so has a changed out-row.
  if (model_ != nullptr) {
    for (VertexId v : changed_in) {
      for (VertexId w : graph_.InNeighbors(v)) mark(w);
    }
  }

  for (uint32_t i = 0; i < theta; ++i) {
    if (!all && !affected[i]) continue;
    VBLOCK_DCHECK(!touched_[i]);  // at rest: nothing blocked since restore
    dirty->push_back(i);
    // Rewind to the cold stream: DeriveSample's revision-0 branch draws
    // fresh from the (already swapped-in) mutated graph with
    // MixSeed(seed, i) in both reuse modes — exactly the draw a cold
    // build would make, which is what makes migration bit-exact.
    revision_[i] = 0;
  }
}

void SamplePool::FinishMigrate() {
  if (options_.reuse == SampleReuse::kPrune) BuildPristineArena();
}

void SamplePool::AddToIndex(uint32_t i) {
  const auto& to_parent = samples_[i].to_parent;
  auto& pos = index_pos_[i];
  pos.resize(to_parent.size());
  for (uint32_t slot = 1; slot < to_parent.size(); ++slot) {
    auto& list = index_[to_parent[slot]];
    pos[slot] = static_cast<uint32_t>(list.size());
    list.push_back({i, slot});
  }
}

void SamplePool::RemoveFromIndex(uint32_t i) {
  const auto& to_parent = samples_[i].to_parent;
  auto& pos = index_pos_[i];
  for (uint32_t slot = 1; slot < to_parent.size(); ++slot) {
    auto& list = index_[to_parent[slot]];
    const uint32_t p = pos[slot];
    const IndexEntry moved = list.back();
    list[p] = moved;
    list.pop_back();
    if (moved.sample != i || moved.slot != slot) {
      index_pos_[moved.sample][moved.slot] = p;
    }
  }
}

void SamplePool::BeginBlock(VertexId v, std::vector<uint32_t>* dirty) {
  VBLOCK_DCHECK(v != root_ && !blocked_.Test(v));
  for (const IndexEntry& entry : index_[v]) {
    dirty->push_back(entry.sample);
    touched_[entry.sample] = 1;
  }
  std::sort(dirty->begin(), dirty->end());
  blocked_.Set(v);
}

void SamplePool::BeginUnblock(VertexId v, std::vector<uint32_t>* dirty) {
  VBLOCK_DCHECK(blocked_.Test(v) && !build_blocked_.Test(v));
  blocked_.Clear(v);
  if (options_.reuse == SampleReuse::kPrune) {
    for (uint64_t k = pristine_begin_[v]; k < pristine_begin_[v + 1]; ++k) {
      dirty->push_back(pristine_index_[k]);
      touched_[pristine_index_[k]] = 1;
    }
  } else {
    for (uint32_t i = 0; i < options_.theta; ++i) {
      dirty->push_back(i);
      touched_[i] = 1;
    }
  }
}

void SamplePool::BeginRestore(std::vector<uint32_t>* dirty) {
  blocked_ = build_blocked_;
  for (uint32_t i = 0; i < options_.theta; ++i) {
    if (!touched_[i]) continue;
    dirty->push_back(i);
    // The re-derive lands the sample back on its pristine content, so it
    // is no longer dirty for the NEXT restore — repeated warm cycles pay
    // only for what they themselves touched.
    touched_[i] = 0;
    // kResample: rewind so DeriveSample replays the revision-0 stream
    // (DrawFresh seeds with MixSeed(seed, i) when revision == 0), making
    // the restored content bit-identical to the original build. kPrune
    // keeps its revision — it re-prunes the pristine arena, and under the
    // build-time mask that reproduces the fresh draw exactly.
    if (options_.reuse == SampleReuse::kResample) revision_[i] = 0;
  }
}

uint64_t SamplePool::TotalRegionVertices() const {
  uint64_t total = 0;
  for (const SampledGraph& s : samples_) total += s.to_parent.size();
  return total;
}

namespace {
template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}
}  // namespace

uint64_t SamplePool::MemoryUsageBytes() const {
  uint64_t bytes = sizeof(SamplePool) + build_blocked_.MemoryUsageBytes() +
                   blocked_.MemoryUsageBytes();
  for (const SampledGraph& s : samples_) {
    bytes += VectorBytes(s.offsets) + VectorBytes(s.targets) +
             VectorBytes(s.to_parent);
  }
  bytes += VectorBytes(samples_) + VectorBytes(revision_) +
           VectorBytes(touched_);
  for (const auto& list : index_) bytes += VectorBytes(list);
  bytes += VectorBytes(index_);
  for (const auto& pos : index_pos_) bytes += VectorBytes(pos);
  bytes += VectorBytes(index_pos_);
  bytes += VectorBytes(arena_offsets_) + VectorBytes(arena_targets_) +
           VectorBytes(arena_parents_);
  bytes += VectorBytes(ext_off_) + VectorBytes(ext_tgt_) +
           VectorBytes(ext_par_);
  bytes += VectorBytes(pristine_begin_) + VectorBytes(pristine_index_);
  return bytes;
}

}  // namespace vblock
