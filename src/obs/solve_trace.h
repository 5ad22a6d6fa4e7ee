// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Per-stage solve tracing: where did this SOLVE's milliseconds go?
//
// A SolveTrace splits one solve into the stages the ICDE'23 pipeline is
// built from — seed unification, pool build (θ sample draws + dominator
// trees), per-iteration rescoring, greedy selection, block/unblock
// mutations, restore, epoch migration — and accumulates wall time per
// stage. Two views coexist:
//
//  * Stage cells — one cache-line-aligned {nanos, calls} pair per stage,
//    accumulated with relaxed atomic adds. Leaf stages (sample draws,
//    dominator-tree passes) record from every participant of the
//    engine's executor loop, so the cells must be thread-safe; relaxed
//    ordering is enough because totals are only read after the loop
//    returns. A leaf cell therefore sums time across participants: with
//    more than one slot, kSampleDraw and kDomTree can exceed the wall
//    clock of their enclosing span (kPoolBuild, kBlock, ...).
//  * Span log — a bounded, preallocated array of {stage, depth, begin,
//    end} records appended by ScopedSpan from the coordinating thread
//    only (the parallel leaves are far too hot and numerous to log
//    individually; they exist in the log as their enclosing span).
//    Overflow past the buffer is counted, never reallocated — tracing
//    must not allocate on the solve path.
//
// Opt-in contract: everything is gated on a `SolveTrace*` that defaults
// to null. Instrumentation compiles to one branch-on-null (ScopedSpan
// with a null trace reads no clock), so the trace-off hot path pays no
// measurable cost — the observability bench asserts ≤2% on the warm
// service solve. Tracing never feeds back into the solve: results are
// bit-identical with tracing on or off (differential test in
// tests/obs_test.cc), and the trace flag is excluded from every cache /
// coalescing key.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace vblock::obs {

/// The stage taxonomy (docs/DESIGN.md §12). Order is the canonical
/// reporting order on the wire.
enum class SolveStage : uint8_t {
  kUnify = 0,     // seed unification / instance mapping
  kPoolBuild,     // full engine Build (encloses draw + domtree leaves)
  kSampleDraw,    // per-θ live-edge sample derivation (summed over slots)
  kDomTree,       // Semi-NCA dominator tree + subtree sizes (same)
  kScore,         // Δ re-aggregation over dirty samples
  kSelect,        // greedy candidate scan / best-pick
  kBlock,         // apply a blocker
  kUnblock,       // phase-2 GR unblock
  kRestore,       // engine restore to fresh-Build state
  kMigrate,       // re-derive of a pool carried across UPDATEs, at the
                  // first checkout after them (untraced ones still reach
                  // the service's migrate cells via stats.migrate_seconds)
};

inline constexpr uint32_t kNumSolveStages = 10;

const char* SolveStageName(SolveStage stage);

/// Per-solve trace sink. Non-copyable (atomic cells); shared between the
/// solver result and any waiters via shared_ptr.
class SolveTrace {
 public:
  /// Span log capacity. Coordinator-level stages for a realistic solve
  /// (one build, tens of greedy rounds folded into per-stage cells, one
  /// restore) fit comfortably; overflow is counted, not stored.
  static constexpr uint32_t kMaxSpans = 64;

  struct Span {
    SolveStage stage = SolveStage::kUnify;
    uint32_t depth = 0;
    uint64_t begin_nanos = 0;
    uint64_t end_nanos = 0;  // 0 while the span is open
  };

  struct StageTotal {
    SolveStage stage = SolveStage::kUnify;
    uint64_t nanos = 0;
    uint64_t calls = 0;
  };

  SolveTrace() = default;
  SolveTrace(const SolveTrace&) = delete;
  SolveTrace& operator=(const SolveTrace&) = delete;

  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Accumulates `nanos` into a stage cell. Thread-safe (relaxed atomics);
  /// callable from parallel workers.
  void Add(SolveStage stage, uint64_t nanos, uint64_t calls = 1) {
    Cell& c = cells_[static_cast<uint32_t>(stage)];
    c.nanos.fetch_add(nanos, std::memory_order_relaxed);
    c.calls.fetch_add(calls, std::memory_order_relaxed);
  }

  /// Nonzero stage totals in enum (reporting) order. Read after the solve
  /// completes.
  std::vector<StageTotal> Totals() const;

  uint64_t stage_nanos(SolveStage stage) const {
    return cells_[static_cast<uint32_t>(stage)].nanos.load(
        std::memory_order_relaxed);
  }
  uint64_t stage_calls(SolveStage stage) const {
    return cells_[static_cast<uint32_t>(stage)].calls.load(
        std::memory_order_relaxed);
  }

  /// Completed + open spans, in begin order. Coordinator-thread data;
  /// read after the solve completes.
  const Span* spans() const { return spans_.data(); }
  uint32_t num_spans() const { return num_spans_; }
  /// Spans that did not fit in the fixed buffer (still counted in cells).
  uint64_t dropped_spans() const { return dropped_spans_; }

  /// Per-request trace id (assigned by the query service; 0 = unassigned).
  uint64_t id() const { return id_; }
  void set_id(uint64_t id) { id_ = id; }

 private:
  friend class ScopedSpan;

  // Coordinator-thread only.
  int32_t OpenSpan(SolveStage stage, uint64_t begin_nanos) {
    if (num_spans_ >= kMaxSpans) {
      ++dropped_spans_;
      return -1;
    }
    const int32_t index = static_cast<int32_t>(num_spans_++);
    Span& s = spans_[static_cast<uint32_t>(index)];
    s.stage = stage;
    s.depth = depth_++;
    s.begin_nanos = begin_nanos;
    s.end_nanos = 0;
    return index;
  }

  void CloseSpan(int32_t index, uint64_t end_nanos) {
    if (depth_ > 0) --depth_;
    if (index >= 0) spans_[static_cast<uint32_t>(index)].end_nanos = end_nanos;
  }

  struct alignas(64) Cell {
    std::atomic<uint64_t> nanos{0};
    std::atomic<uint64_t> calls{0};
  };

  std::array<Cell, kNumSolveStages> cells_;
  std::array<Span, kMaxSpans> spans_;
  uint32_t num_spans_ = 0;
  uint32_t depth_ = 0;
  uint64_t dropped_spans_ = 0;
  uint64_t id_ = 0;
};

/// RAII stage timer. With a null trace the constructor and destructor are
/// a single pointer test each — the compiled trace-off cost of an
/// instrumented scope. With a trace it opens a span on construction and,
/// on destruction, closes it and adds the elapsed time to the stage cell.
/// Construct on the coordinating thread only (the span log is unsynchronized);
/// parallel leaves call SolveTrace::Add directly instead.
class ScopedSpan {
 public:
  ScopedSpan(SolveTrace* trace, SolveStage stage) : trace_(trace) {
    if (trace_ == nullptr) return;
    stage_ = stage;
    begin_ = SolveTrace::NowNanos();
    index_ = trace_->OpenSpan(stage, begin_);
  }

  ~ScopedSpan() {
    if (trace_ == nullptr) return;
    const uint64_t end = SolveTrace::NowNanos();
    trace_->CloseSpan(index_, end);
    trace_->Add(stage_, end - begin_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SolveTrace* trace_;
  SolveStage stage_ = SolveStage::kUnify;
  uint64_t begin_ = 0;
  int32_t index_ = -1;
};

}  // namespace vblock::obs
