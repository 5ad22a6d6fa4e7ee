#include "sampling/sample_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace vblock {

namespace {

uint64_t RegionBytes(const SampledGraph& s) {
  return VectorBytes(s.offsets) + VectorBytes(s.targets) +
         VectorBytes(s.to_parent);
}

}  // namespace

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
      touched_(options.theta, 0),
      undo_(options.theta) {
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

void SamplePool::Prune(const SampledGraph& world, SampledGraph* out,
                       Scratch* scratch) {
  VBLOCK_DCHECK(!world.to_parent.empty());
  const auto nv = static_cast<uint32_t>(world.to_parent.size());
  const uint32_t* offsets = world.offsets.data();
  const VertexId* targets = world.targets.data();
  const VertexId* parents = world.to_parent.data();

  if (scratch->visit_epoch.size() < nv) {
    scratch->visit_epoch.resize(nv, 0);
    scratch->local_id.resize(nv);
  }
  const uint32_t epoch = ++scratch->epoch;

  out->Clear();
  scratch->world_of.clear();

  // BFS over the stored live edges in the world's local id space, skipping
  // blocked vertices; local ids are re-densified so the output is a
  // self-contained SampledGraph like a fresh draw.
  scratch->visit_epoch[0] = epoch;
  scratch->local_id[0] = 0;
  out->to_parent.push_back(parents[0]);
  scratch->world_of.push_back(0);
  for (uint32_t new_u = 0; new_u < scratch->world_of.size(); ++new_u) {
    const uint32_t pu = scratch->world_of[new_u];
    for (uint32_t e = offsets[pu]; e < offsets[pu + 1]; ++e) {
      const uint32_t pv = targets[e];
      if (blocked_.Test(parents[pv])) continue;
      uint32_t new_v;
      if (scratch->visit_epoch[pv] == epoch) {
        new_v = scratch->local_id[pv];
      } else {
        scratch->visit_epoch[pv] = epoch;
        new_v = static_cast<uint32_t>(out->to_parent.size());
        scratch->local_id[pv] = new_v;
        out->to_parent.push_back(parents[pv]);
        scratch->world_of.push_back(pv);
      }
      out->targets.push_back(new_v);
    }
    out->offsets.push_back(static_cast<uint32_t>(out->targets.size()));
  }
}

bool SamplePool::DeriveSample(uint32_t i, Scratch* scratch) {
  // First derive since the last restore: the built region moves to the
  // undo slot (an O(1) swap with the empty slot), and the derive below
  // writes into fresh buffers.
  const bool save = touched_[i] && undo_[i].to_parent.empty();
  if (save) std::swap(samples_[i], undo_[i]);
  const bool resample = options_.reuse == SampleReuse::kResample;
  if (revision_[i] == 0 || (unblocking_ && resample && model_)) {
    // A new world: the initial draw (identical in both modes) or a
    // triggering-model kResample Unblock's refresh.
    DrawFresh(i, scratch);
    ++revision_[i];
    return save;
  }
  // The stored world to derive from: kPrune's pristine world in the undo
  // slot, or the region a kResample sample holds now (the built one when
  // it was just saved).
  const SampledGraph* world = &undo_[i];
  if (resample && !save) {
    std::swap(samples_[i], scratch->current);
    world = &scratch->current;
  }
  if (unblocking_ && resample) {
    Extend(i, *world, &samples_[i], scratch);
  } else {
    Prune(*world, &samples_[i], scratch);
  }
  return save;
}

void SamplePool::Extend(uint32_t i, const SampledGraph& region,
                        SampledGraph* out, Scratch* scratch) {
  const auto it = std::lower_bound(
      extensions_.begin(), extensions_.end(), i,
      [](const Extension& e, uint32_t sample) { return e.sample < sample; });
  VBLOCK_DCHECK(it != extensions_.end() && it->sample == i);
  const uint32_t end = it + 1 == extensions_.end()
                           ? static_cast<uint32_t>(live_sources_.size())
                           : (it + 1)->live_begin;
  Rng rng = it->rng;
  scratch->ic_sampler->Extend(
      region, unblocked_,
      std::span<const uint32_t>(live_sources_).subspan(
          it->live_begin, end - it->live_begin),
      rng, out);
}

void SamplePool::PutBackSample(uint32_t i) {
  VBLOCK_DCHECK(!touched_[i] && !undo_[i].to_parent.empty());
  samples_[i] = std::exchange(undo_[i], SampledGraph{});
  // Build, migrate and restore all leave an at-rest sample at revision 1:
  // a triggering-model pool's next kResample re-draw uses
  // MixSeed(MixSeed(seed, i), 1).
  revision_[i] = 1;
}

void SamplePool::BuildPristineIndex() {
  // Counting sort over the built regions; sample ids end up ascending
  // within each vertex's slice. Slot 0 (the root) is skipped — the root is
  // in every sample and can never be blocked.
  pristine_begin_.assign(graph_.NumVertices() + 1, 0);
  for (const SampledGraph& s : samples_) {
    for (size_t k = 1; k < s.to_parent.size(); ++k) {
      ++pristine_begin_[s.to_parent[k] + 1];
    }
  }
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    pristine_begin_[v + 1] += pristine_begin_[v];
  }
  pristine_index_.resize(pristine_begin_[graph_.NumVertices()]);
  std::vector<uint64_t> cursor(pristine_begin_.begin(),
                               pristine_begin_.end() - 1);
  for (uint32_t i = 0; i < options_.theta; ++i) {
    const auto& to_parent = samples_[i].to_parent;
    for (size_t k = 1; k < to_parent.size(); ++k) {
      pristine_index_[cursor[to_parent[k]]++] = i;
    }
  }
}

void SamplePool::FinalizeBuild() {
  if (options_.reuse == SampleReuse::kPrune) BuildPristineIndex();
  index_.assign(graph_.NumVertices(), {});
  index_pos_.assign(options_.theta, {});
}

void SamplePool::BeginMigrate(std::span<const VertexId> changed_out,
                              std::span<const VertexId> changed_in,
                              std::vector<uint32_t>* dirty) {
  const uint32_t theta = options_.theta;
  for (SampledGraph& saved : undo_) saved = SampledGraph{};
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
  if (options_.reuse == SampleReuse::kPrune) BuildPristineIndex();
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

void SamplePool::ClearIndex() {
  for (auto& list : index_) list.clear();
}

void SamplePool::BeginBlock(VertexId v, std::vector<uint32_t>* dirty) {
  VBLOCK_DCHECK(v != root_ && !blocked_.Test(v));
  for (const IndexEntry& entry : index_[v]) {
    dirty->push_back(entry.sample);
    touched_[entry.sample] = 1;
  }
  std::sort(dirty->begin(), dirty->end());
  blocked_.Set(v);
  unblocking_ = false;
}

void SamplePool::BeginUnblock(VertexId v, std::vector<uint32_t>* dirty) {
  VBLOCK_DCHECK(blocked_.Test(v) && !build_blocked_.Test(v));
  blocked_.Clear(v);
  unblocking_ = true;
  auto mark = [&](uint32_t i) {
    dirty->push_back(i);
    touched_[i] = 1;
  };
  if (options_.reuse == SampleReuse::kPrune) {
    for (uint64_t k = pristine_begin_[v]; k < pristine_begin_[v + 1]; ++k) {
      mark(pristine_index_[k]);
    }
  } else if (model_ != nullptr) {
    for (uint32_t i = 0; i < options_.theta; ++i) mark(i);
  } else {
    FlipUnblockCoins(v, dirty);
  }
}

void SamplePool::FlipUnblockCoins(VertexId v, std::vector<uint32_t>* dirty) {
  ++unblocks_;
  unblocked_ = v;
  extensions_.clear();
  live_sources_.clear();
  // Bucket the region vertices with an edge into v by sample: a counting
  // sort over the index lists of v's in-neighbours, plus slot 0 of every
  // sample when the root is one (the index leaves the root out).
  struct Coin {
    uint32_t slot;
    double p;
  };
  const uint32_t theta = options_.theta;
  const std::span<const VertexId> sources = graph_.InNeighbors(v);
  const std::span<const double> probs = graph_.InProbabilities(v);
  const auto from_root = std::find(sources.begin(), sources.end(), root_);
  std::vector<uint32_t> begin(theta + 1, from_root != sources.end() ? 1 : 0);
  begin[0] = 0;
  for (VertexId w : sources) {
    if (w == root_) continue;
    for (const IndexEntry& entry : index_[w]) ++begin[entry.sample + 1];
  }
  for (uint32_t i = 0; i < theta; ++i) begin[i + 1] += begin[i];
  std::vector<Coin> coins(begin[theta]);
  std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
  if (from_root != sources.end()) {
    const double p = probs[from_root - sources.begin()];
    for (uint32_t i = 0; i < theta; ++i) coins[cursor[i]++] = {0, p};
  }
  for (size_t k = 0; k < sources.size(); ++k) {
    if (sources[k] == root_) continue;
    for (const IndexEntry& entry : index_[sources[k]]) {
      coins[cursor[entry.sample]++] = {entry.slot, probs[k]};
    }
  }
  for (uint32_t i = 0; i < theta; ++i) {
    if (begin[i] == begin[i + 1]) continue;
    // Sample i's coins for its edges into v, in ascending local-id order,
    // from the stream of the unblocks_-th Unblock since the last restore.
    const auto first = coins.begin() + begin[i];
    const auto last = coins.begin() + begin[i + 1];
    std::sort(first, last,
              [](const Coin& a, const Coin& b) { return a.slot < b.slot; });
    Rng rng(MixSeed(MixSeed(options_.seed, i), unblocks_));
    const auto live_begin = static_cast<uint32_t>(live_sources_.size());
    for (auto c = first; c != last; ++c) {
      if (rng.NextBernoulli(c->p)) live_sources_.push_back(c->slot);
    }
    if (live_sources_.size() == live_begin) continue;  // v stays unreached
    extensions_.push_back({i, live_begin, rng});
    dirty->push_back(i);
    touched_[i] = 1;
  }
}

void SamplePool::BeginRestore(std::vector<uint32_t>* dirty) {
  blocked_ = build_blocked_;
  unblocks_ = 0;
  for (uint32_t i = 0; i < options_.theta; ++i) {
    if (!touched_[i]) continue;
    dirty->push_back(i);
    // The restore lands the sample back on its built content, so it is no
    // longer dirty for the NEXT restore — repeated warm cycles pay only
    // for what they themselves touched.
    touched_[i] = 0;
    // kResample: rewind so a re-deriving caller's DeriveSample replays the
    // revision-0 stream (DrawFresh seeds with MixSeed(seed, i) when
    // revision == 0). kPrune keeps its revision: it re-prunes the undo
    // slot's built region, which under the build-time mask reproduces it.
    if (options_.reuse == SampleReuse::kResample) revision_[i] = 0;
  }
}

uint64_t SamplePool::TotalRegionVertices() const {
  uint64_t total = 0;
  for (const SampledGraph& s : samples_) total += s.to_parent.size();
  return total;
}

uint64_t SamplePool::Scratch::MemoryUsageBytes() const {
  uint64_t bytes = VectorBytes(local_id) + VectorBytes(visit_epoch) +
                   VectorBytes(world_of) + RegionBytes(current);
  if (ic_sampler) {
    bytes += sizeof(ReachableSampler) + ic_sampler->MemoryUsageBytes();
  }
  if (triggering_sampler) {
    bytes += sizeof(TriggeringSampler) +
             triggering_sampler->MemoryUsageBytes();
  }
  return bytes;
}

uint64_t SamplePool::MemoryUsageBytes() const {
  uint64_t bytes = sizeof(SamplePool) + build_blocked_.MemoryUsageBytes() +
                   blocked_.MemoryUsageBytes();
  for (const SampledGraph& s : samples_) bytes += RegionBytes(s);
  for (const SampledGraph& s : undo_) bytes += RegionBytes(s);
  bytes += VectorBytes(samples_) + VectorBytes(undo_) +
           VectorBytes(revision_) + VectorBytes(touched_);
  for (const auto& list : index_) bytes += VectorBytes(list);
  bytes += VectorBytes(index_);
  for (const auto& pos : index_pos_) bytes += VectorBytes(pos);
  bytes += VectorBytes(index_pos_);
  bytes += VectorBytes(pristine_begin_) + VectorBytes(pristine_index_);
  bytes += VectorBytes(extensions_) + VectorBytes(live_sources_);
  return bytes;
}

}  // namespace vblock
