#include "core/batch_solver.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/greedy.h"
#include "core/query_key.h"
#include "obs/solve_trace.h"

namespace vblock {
namespace {

// The shared canonical work-sharing key (core/query_key.h): sorted seeds +
// the knobs the algorithm reads. std::map iteration over these keys fixes a
// deterministic group order independent of query submission order.
using GroupKey = QueryKey;

struct Member {
  uint32_t query_index = 0;
  uint32_t budget = 0;
  // Wants the shared run's SolveTrace attached to its result. Not part of
  // the group key; a group runs traced when any member asks.
  bool trace = false;
};

bool GroupTraced(const std::vector<Member>& members) {
  for (const Member& m : members) {
    if (m.trace) return true;
  }
  return false;
}

// Members sorted by (budget, query_index): the last one carries the
// group's maximum budget, and GR groups walk budgets ascending.
struct Group {
  GroupKey key;
  std::vector<Member> members;
};

// RA/OD/PR/BC/BG/AG: the pick at position k depends only on the k picks
// before it (top-k truncations and greedy rounds alike), so one run at the
// group's maximum budget answers every member by slicing its selection
// trace — bit-exact with the standalone solve at that member's budget.
void RunSweepGroup(const Graph& g, const Group& group, uint32_t engine_threads,
                   std::vector<BatchQueryResult>* out, BatchStats* stats) {
  Timer timer;
  const uint32_t max_budget = group.members.back().budget;
  SolverOptions shared_opts =
      SolverOptionsForKey(group.key, max_budget, engine_threads);
  shared_opts.trace = GroupTraced(group.members);
  Result<SolverResult> full = SolveImin(g, group.key.seeds, shared_opts);
  // Validation is per-query and budget-monotone: the max-budget member
  // passed it, so the shared solve cannot be rejected.
  VBLOCK_CHECK(full.ok());
  ++stats->full_solves;
  if (group.key.algorithm == Algorithm::kAdvancedGreedy && max_budget > 0) {
    ++stats->engine_builds;
  }

  const bool greedy = group.key.algorithm == Algorithm::kBaselineGreedy ||
                      group.key.algorithm == Algorithm::kAdvancedGreedy;
  const std::vector<VertexId>& trace = full->stats.selection_trace;
  const double seconds = timer.ElapsedSeconds();
  uint32_t served_from_trace = 0;
  for (const Member& m : group.members) {
    if (full->stats.timed_out && m.budget > trace.size()) {
      // The shared run's deadline cut the trace short of this member's
      // budget. Every query is entitled to its own full time budget —
      // exactly like the GR group's rebuild-on-poison path — so fall back
      // to an individual solve under a fresh deadline.
      SolverOptions solo_opts =
          SolverOptionsForKey(group.key, m.budget, engine_threads);
      solo_opts.trace = m.trace;
      Result<SolverResult> solo = SolveImin(g, group.key.seeds, solo_opts);
      VBLOCK_CHECK(solo.ok());
      ++stats->full_solves;
      if (group.key.algorithm == Algorithm::kAdvancedGreedy) {
        ++stats->engine_builds;
      }
      (*out)[m.query_index].result = std::move(*solo);
      continue;
    }
    SolverResult r;
    const size_t k = std::min<size_t>(m.budget, trace.size());
    r.blockers.assign(trace.begin(),
                      trace.begin() + static_cast<ptrdiff_t>(k));
    r.stats.selection_trace = r.blockers;
    if (greedy) {
      r.stats.rounds_completed = static_cast<uint32_t>(k);
      const std::vector<double>& deltas = full->stats.round_best_delta;
      const size_t kd = std::min(k, deltas.size());
      r.stats.round_best_delta.assign(
          deltas.begin(), deltas.begin() + static_cast<ptrdiff_t>(kd));
    }
    r.stats.seconds = seconds;
    r.stats.pool_build_seconds = full->stats.pool_build_seconds;
    if (m.trace) r.trace = full->trace;  // the shared run's attribution
    (*out)[m.query_index].result = std::move(r);
    ++served_from_trace;
  }
  if (served_from_trace > 0) stats->sweep_served += served_from_trace - 1;
}

// GreedyReplace: phase 2 replays the whole phase-1 pick set, so budget b'
// results are NOT prefixes of budget b results and every member needs its
// own run. What still amortizes is the unification and the θ-sample pool:
// every member runs SolveGreedy on one WarmEntry, and Restore() returns
// its engine to the freshly built state bit-for-bit in both reuse modes
// (kPrune re-prunes the pristine worlds, kResample replays the revision-0
// streams; tests/sample_pool_test.cc asserts this), so one Build() serves
// the whole group.
void RunGreedyReplaceGroup(const Graph& g, const Group& group,
                           uint32_t engine_threads,
                           std::vector<BatchQueryResult>* out,
                           BatchStats* stats) {
  Timer timer;
  // One shared trace for the whole group — GR members share the
  // unification and the pool build, so their attribution is inherently
  // group-level, mirroring the sweep groups.
  std::shared_ptr<obs::SolveTrace> group_trace;
  if (GroupTraced(group.members)) {
    group_trace = std::make_shared<obs::SolveTrace>();
  }
  WarmEntry entry;
  for (const Member& m : group.members) {
    Deadline deadline(group.key.time_limit_seconds);
    // A previous member's deadline latched the engine mid-update: every
    // member is entitled to its own full time budget, exactly like a
    // standalone solve, and Build is deterministic, so a rebuild draws the
    // same worlds bit-for-bit.
    if (entry.engine && entry.engine->timed_out()) entry.engine.reset();
    SolverResult r;
    if (entry.engine && !entry.engine->Restore(deadline)) {
      // The previous member left its final blockers in the mask and this
      // member's deadline expired while restoring them.
      r.stats.timed_out = true;
    } else {
      const bool cold = entry.engine == nullptr;
      r = SolveGreedy(g, group.key.seeds,
                      SolverOptionsForKey(group.key, m.budget, engine_threads),
                      deadline, group_trace.get(), &entry);
      if (cold && entry.engine) ++stats->engine_builds;
      ++stats->full_solves;
    }
    r.stats.seconds = timer.ElapsedSeconds();
    if (m.trace) r.trace = group_trace;
    (*out)[m.query_index].result = std::move(r);
  }
}

}  // namespace

QueryKey ResolveQueryKey(const IminQuery& q, const SolverOptions& defaults) {
  SolverOptions resolved = defaults;
  resolved.theta = q.theta.value_or(defaults.theta);
  resolved.mc_rounds = q.mc_rounds.value_or(defaults.mc_rounds);
  resolved.seed = q.seed.value_or(defaults.seed);
  resolved.sample_reuse = q.sample_reuse.value_or(defaults.sample_reuse);
  resolved.sampler_kind = q.sampler_kind.value_or(defaults.sampler_kind);
  resolved.vertex_order = q.vertex_order.value_or(defaults.vertex_order);
  resolved.time_limit_seconds =
      q.time_limit_seconds.value_or(defaults.time_limit_seconds);
  return CanonicalQueryKey(q.seeds, q.algorithm, resolved);
}

BatchSolver::BatchSolver(const Graph& g, const BatchOptions& options)
    : graph_(g), options_(options) {}

BatchResult BatchSolver::Solve(const std::vector<IminQuery>& queries) const {
  Timer timer;
  BatchResult out;
  out.queries.resize(queries.size());

  // Validate, resolve per-query parameters against the batch defaults, and
  // group by shareability key. Invalid queries get their typed Status here
  // and never join a group.
  std::map<GroupKey, std::vector<Member>> grouping;
  for (uint32_t i = 0; i < queries.size(); ++i) {
    const IminQuery& q = queries[i];
    Status valid = ValidateIminQuery(graph_, q.seeds, q.budget);
    if (!valid.ok()) {
      out.queries[i].status = std::move(valid);
      continue;
    }
    grouping[ResolveQueryKey(q, options_.defaults)].push_back(
        Member{i, q.budget, q.trace || options_.defaults.trace});
  }

  std::vector<Group> groups;
  groups.reserve(grouping.size());
  for (auto& [key, members] : grouping) {
    std::sort(members.begin(), members.end(),
              [](const Member& a, const Member& b) {
                return std::tie(a.budget, a.query_index) <
                       std::tie(b.budget, b.query_index);
              });
    groups.push_back(Group{key, std::move(members)});
  }
  out.stats.num_groups = static_cast<uint32_t>(groups.size());

  // Each group computes its members' results deterministically and writes
  // only their slots, so any schedule over the groups yields the same
  // BatchResult.
  std::vector<BatchStats> group_stats(groups.size());
  auto run_group = [&](uint32_t gi) {
    const Group& group = groups[gi];
    if (group.key.algorithm == Algorithm::kGreedyReplace) {
      RunGreedyReplaceGroup(graph_, group, options_.defaults.threads,
                            &out.queries, &group_stats[gi]);
    } else {
      RunSweepGroup(graph_, group, options_.defaults.threads, &out.queries,
                    &group_stats[gi]);
    }
  };

  const uint32_t num_threads = std::max<uint32_t>(
      1, std::min<uint32_t>(options_.num_threads,
                            static_cast<uint32_t>(groups.size())));
  if (num_threads > 1) {
    // Dynamic dispatch rather than ParallelFor's static chunks: group
    // costs are heavily skewed (a GR sweep vs an out-degree top-k), and
    // the map orders groups by algorithm, which would cluster the
    // expensive ones into one worker's chunk. Which thread runs a group
    // never affects its result, so determinism is untouched.
    std::atomic<uint32_t> next{0};
    ThreadPool pool(num_threads);
    pool.ParallelFor(num_threads, [&](uint32_t, uint32_t, uint32_t) {
      for (uint32_t gi = next.fetch_add(1, std::memory_order_relaxed);
           gi < groups.size();
           gi = next.fetch_add(1, std::memory_order_relaxed)) {
        run_group(gi);
      }
    });
  } else {
    for (uint32_t gi = 0; gi < groups.size(); ++gi) run_group(gi);
  }

  for (const BatchStats& s : group_stats) {
    out.stats.full_solves += s.full_solves;
    out.stats.sweep_served += s.sweep_served;
    out.stats.engine_builds += s.engine_builds;
  }
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

BatchResult SolveIminBatch(const Graph& g,
                           const std::vector<IminQuery>& queries,
                           const BatchOptions& options) {
  return BatchSolver(g, options).Solve(queries);
}

}  // namespace vblock
