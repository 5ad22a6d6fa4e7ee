#include "graph/prob_grouped_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace vblock {

namespace {

// Interns a probability value by exact bit pattern (the grouped view must
// reproduce every original probability bit-for-bit, so no epsilon
// bucketing). Class ids are assigned in order of first appearance, which
// is deterministic because the CSR scan order is.
uint32_t InternClass(double p,
                     std::unordered_map<uint64_t, uint32_t>* interned,
                     std::vector<ProbGroupedView::ProbClass>* classes) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p, sizeof(bits));
  auto [it, inserted] =
      interned->try_emplace(bits, static_cast<uint32_t>(classes->size()));
  if (inserted) {
    ProbGroupedView::ProbClass cls;
    cls.probability = p;
    cls.inv_log1m = (p > 0.0 && p < 1.0) ? 1.0 / std::log1p(-p) : 0.0;
    classes->push_back(cls);
  }
  return it->second;
}

uint64_t ProbBits(double p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p, sizeof(bits));
  return bits;
}

}  // namespace

// Epoch-stamped per-class scratch (grown as classes are interned) for the
// stable per-vertex counting group — no per-vertex allocations. Shared by
// the cold build and the delta patch.
struct ProbGroupedView::GroupScratch {
  std::vector<uint32_t> class_of;  // per original position of one vertex
  std::vector<uint32_t> distinct;  // this vertex's classes, sorted ascending
  std::vector<uint32_t> class_epoch, class_count, class_cursor;
  uint32_t vertex_epoch = 0;
};

ProbGroupedView::ProbGroupedView(const Graph& g) {
  BuildDir(g, /*out=*/true, &out_);
  BuildDir(g, /*out=*/false, &in_);
}

void ProbGroupedView::GroupVertex(VertexId v,
                                  std::span<const VertexId> neighbors,
                                  std::span<const double> probs,
                                  std::unordered_map<uint64_t, uint32_t>*
                                      interned,
                                  GroupScratch* s, Dir* d) {
  const auto degree = static_cast<uint32_t>(neighbors.size());
  const EdgeId edge_cursor = d->offsets[v];

  s->class_of.resize(degree);
  for (uint32_t k = 0; k < degree; ++k) {
    s->class_of[k] = InternClass(probs[k], interned, &classes_);
  }
  if (s->class_epoch.size() < classes_.size()) {
    s->class_epoch.resize(classes_.size(), 0);
    s->class_count.resize(classes_.size());
    s->class_cursor.resize(classes_.size());
  }

  // Stable counting group by ascending class id: edges of one class
  // become one contiguous run, original relative order preserved within
  // it — deterministic, and each run is emitted directly from its count.
  ++s->vertex_epoch;
  s->distinct.clear();
  for (uint32_t k = 0; k < degree; ++k) {
    const uint32_t c = s->class_of[k];
    if (s->class_epoch[c] != s->vertex_epoch) {
      s->class_epoch[c] = s->vertex_epoch;
      s->class_count[c] = 0;
      s->distinct.push_back(c);
    }
    ++s->class_count[c];
  }
  std::sort(s->distinct.begin(), s->distinct.end());

  const auto first_run = static_cast<uint32_t>(d->runs.size());
  uint32_t cursor = 0;
  for (uint32_t c : s->distinct) {
    s->class_cursor[c] = cursor;
    cursor += s->class_count[c];
    const double p = classes_[c].probability;
    const RunStrategy strategy = ChooseRunStrategy(p, s->class_count[c]);
    const uint16_t block =
        strategy == RunStrategy::kBlock
            ? static_cast<uint16_t>(DrawBlockFor(p, s->class_count[c]))
            : 0;
    d->runs.push_back(Run{c, s->class_count[c], strategy, block});
  }
  for (uint32_t k = 0; k < degree; ++k) {
    const uint32_t slot = s->class_cursor[s->class_of[k]]++;
    d->neighbors[edge_cursor + slot] = neighbors[k];
    d->orig_pos[edge_cursor + slot] = k;
    d->probs[edge_cursor + slot] = probs[k];
  }
  // Pick the vertex's kernel strategy under the cost model: total run-walk
  // cost (each run at its chosen strategy's cost) against one plain coin
  // scan. Vertices whose grouping cannot pay — typical for WC out-edges,
  // whose targets mostly have distinct in-degrees — keep the plain scan
  // and cost exactly what the per-edge kind costs.
  double plain_cost = 0;
  double walk_cost = 0;
  for (uint32_t r = first_run; r < d->runs.size(); ++r) {
    const double p = classes_[d->runs[r].class_id].probability;
    const uint32_t length = d->runs[r].length;
    walk_cost += kRunOverheadCost;
    if (p <= 0.0) {
      plain_cost += kDegenerateEdgeCost * length;
    } else if (p >= 1.0) {
      plain_cost += kDegenerateEdgeCost * length;
      walk_cost += kDegenerateEdgeCost * length;
    } else {
      plain_cost += length;
      walk_cost += RunCost(p, length, d->runs[r].strategy);
    }
  }
  d->use_runs[v] = walk_cost < plain_cost ? 1 : 0;
  d->offsets[v + 1] = edge_cursor + degree;
  // run_offsets is 32-bit (one run per edge worst case, and EdgeId is
  // 64-bit) — make the limit explicit rather than silently wrapping.
  VBLOCK_CHECK_MSG(d->runs.size() <= UINT32_MAX,
                   "grouped view supports at most 2^32 probability runs");
  d->run_offsets[v + 1] = static_cast<uint32_t>(d->runs.size());
}

void ProbGroupedView::BuildDir(const Graph& g, bool out, Dir* d) {
  const VertexId n = g.NumVertices();
  const EdgeId m = g.NumEdges();
  d->offsets.assign(n + 1, 0);
  d->run_offsets.assign(n + 1, 0);
  d->neighbors.resize(m);
  d->orig_pos.resize(m);
  d->probs.resize(m);
  d->use_runs.assign(n, 0);

  // The class table is shared between directions: the out pass interns
  // every value, the in pass (seeded from classes_ below) finds them all
  // already present — the two directions carry the same edge set.
  std::unordered_map<uint64_t, uint32_t> interned;
  interned.reserve(classes_.size() * 2 + 16);
  for (const ProbClass& cls : classes_) {
    interned.emplace(ProbBits(cls.probability),
                     static_cast<uint32_t>(&cls - classes_.data()));
  }

  GroupScratch scratch;
  for (VertexId v = 0; v < n; ++v) {
    GroupVertex(v, out ? g.OutNeighbors(v) : g.InNeighbors(v),
                out ? g.OutProbabilities(v) : g.InProbabilities(v), &interned,
                &scratch, d);
  }
  d->runs.shrink_to_fit();
}

std::unique_ptr<ProbGroupedView> ProbGroupedView::DeltaPatched(
    const ProbGroupedView& old_view, const Graph& new_graph,
    std::span<const VertexId> changed_out,
    std::span<const VertexId> changed_in) {
  const VertexId n = new_graph.NumVertices();

  // Learn the class table a cold build of new_graph would produce: one
  // interning pass in exactly the cold build's scan order (all out rows,
  // then all in rows).
  std::unordered_map<uint64_t, uint32_t> interned;
  std::vector<ProbClass> fresh;
  interned.reserve(old_view.classes_.size() * 2 + 16);
  for (int pass = 0; pass < 2; ++pass) {
    for (VertexId v = 0; v < n; ++v) {
      const auto probs = pass == 0 ? new_graph.OutProbabilities(v)
                                   : new_graph.InProbabilities(v);
      for (double p : probs) InternClass(p, &interned, &fresh);
    }
  }

  // Stability precondition: the old table must be a bitwise prefix of the
  // fresh one. Copied runs store old class ids, and the per-vertex runs
  // are sorted by class id — if a cold build would number any old class
  // differently, unchanged vertices' run order (and thus their samplers'
  // RNG consumption) would diverge from cold, so the patch must refuse.
  if (fresh.size() < old_view.classes_.size()) return nullptr;
  for (size_t c = 0; c < old_view.classes_.size(); ++c) {
    if (ProbBits(fresh[c].probability) !=
        ProbBits(old_view.classes_[c].probability)) {
      return nullptr;
    }
  }

  std::unique_ptr<ProbGroupedView> patched(new ProbGroupedView());
  patched->classes_ = std::move(fresh);
  GroupScratch scratch;

  const EdgeId m = new_graph.NumEdges();
  auto patch_dir = [&](const Dir& old_dir, bool out,
                       std::span<const VertexId> changed, Dir* d) {
    d->offsets.assign(n + 1, 0);
    d->run_offsets.assign(n + 1, 0);
    d->neighbors.resize(m);
    d->orig_pos.resize(m);
    d->probs.resize(m);
    d->use_runs.assign(n, 0);

    std::vector<uint8_t> is_changed(n, 0);
    for (VertexId v : changed) {
      VBLOCK_DCHECK(v < n);
      is_changed[v] = 1;
    }
    const auto old_n = static_cast<VertexId>(old_dir.offsets.size() - 1);

    for (VertexId v = 0; v < n; ++v) {
      if (v >= old_n || is_changed[v]) {
        patched->GroupVertex(
            v, out ? new_graph.OutNeighbors(v) : new_graph.InNeighbors(v),
            out ? new_graph.OutProbabilities(v) : new_graph.InProbabilities(v),
            &interned, &scratch, d);
        continue;
      }
      // Unchanged row: copy the old vertex's grouped slices and decisions
      // verbatim, shifted to the new edge cursor.
      const EdgeId src = old_dir.offsets[v];
      const EdgeId len = old_dir.offsets[v + 1] - src;
      const EdgeId dst = d->offsets[v];
      VBLOCK_DCHECK(len == (out ? new_graph.OutDegree(v)
                                : new_graph.InDegree(v)));
      std::copy_n(old_dir.neighbors.begin() + src, len,
                  d->neighbors.begin() + dst);
      std::copy_n(old_dir.orig_pos.begin() + src, len,
                  d->orig_pos.begin() + dst);
      std::copy_n(old_dir.probs.begin() + src, len, d->probs.begin() + dst);
      d->runs.insert(d->runs.end(), old_dir.runs.begin() + old_dir.run_offsets[v],
                     old_dir.runs.begin() + old_dir.run_offsets[v + 1]);
      d->use_runs[v] = old_dir.use_runs[v];
      d->offsets[v + 1] = dst + len;
      VBLOCK_CHECK_MSG(d->runs.size() <= UINT32_MAX,
                       "grouped view supports at most 2^32 probability runs");
      d->run_offsets[v + 1] = static_cast<uint32_t>(d->runs.size());
    }
    d->runs.shrink_to_fit();
  };

  patch_dir(old_view.out_, /*out=*/true, changed_out, &patched->out_);
  patch_dir(old_view.in_, /*out=*/false, changed_in, &patched->in_);
  return patched;
}

// -- Graph::GroupedView -----------------------------------------------------
// Defined here (not graph.cc) so graph.cc never needs the complete
// ProbGroupedView type for delete.

Graph::GroupedViewSlot::~GroupedViewSlot() { Reset(); }

void Graph::GroupedViewSlot::Reset() {
  delete view.exchange(nullptr, std::memory_order_acq_rel);
}

const ProbGroupedView& Graph::GroupedView() const {
  const ProbGroupedView* existing =
      grouped_.view.load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  // Concurrent first calls race to install; losers discard their build.
  // Building twice is wasteful but rare (first use only) and keeps readers
  // lock-free forever after.
  auto* built = new ProbGroupedView(*this);
  const ProbGroupedView* expected = nullptr;
  if (grouped_.view.compare_exchange_strong(expected, built,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    return *built;
  }
  delete built;
  return *expected;
}

void Graph::InstallGroupedView(std::unique_ptr<const ProbGroupedView> view) {
  grouped_.Reset();
  grouped_.view.store(view.release(), std::memory_order_release);
}

uint64_t Graph::GroupedViewMemoryUsageBytes() const {
  const ProbGroupedView* view = grouped_.view.load(std::memory_order_acquire);
  return view != nullptr ? view->MemoryUsageBytes() : 0;
}

}  // namespace vblock
