// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// The process's two kinds of threads.
//
//  * ThreadPool — a FIFO task queue with its own workers, for the async
//    query service's scheduler (service/query_service.h): Submit enqueues a
//    fire-and-forget task, QueueDepth exposes the backlog for admission
//    control and stats.
//  * ParallelFor — fork-join range loops on one lazily started,
//    process-wide executor. It owns ExecutorWidth() − 1 helper threads;
//    every θ-loop, Monte-Carlo estimate and batch run shares them, so the
//    process never holds more sampling threads than cores, however many
//    solves run at once.
//
// ParallelFor *helps*: the calling thread publishes the job, claims
// dynamic chunks itself, and afterwards waits only for chunks that helpers
// have already started. A job therefore completes even when no helper is
// free — nested inside another job's chunk, or called from a service
// worker while every helper is busy — and no wait can deadlock: a thread
// only ever waits on helpers that are running chunks of a job it
// published, and those only wait on jobs published later.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vblock {

/// FIFO task queue run by its own worker threads.
class ThreadPool {
 public:
  /// Spawns `num_workers` threads; 0 runs every task inline.
  explicit ThreadPool(uint32_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Enqueues a fire-and-forget task for the next idle worker (FIFO). When
  /// the pool has no workers the task runs inline before Submit returns.
  /// The destructor drains the queue: every task submitted before
  /// destruction begins is executed, then the workers exit — so a task's
  /// side effects (fulfilling a promise, releasing a cache entry) are
  /// always delivered.
  void Submit(std::function<void()> task);

  /// Tasks submitted but not yet started (the service's admission-control
  /// backlog signal). Running tasks are not counted.
  uint32_t QueueDepth() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
};

/// Most participants one ParallelFor can have: the helper count is clamped
/// to kMaxExecutorWidth − 1 so no host makes the executor spawn hundreds.
inline constexpr uint32_t kMaxExecutorWidth = 64;

/// The executor's width: the host's hardware threads clamped to
/// [1, kMaxExecutorWidth] — one calling thread plus ExecutorWidth() − 1
/// helpers. Computing it starts no thread.
uint32_t ExecutorWidth();

/// Helper threads the executor runs (starting it if it is not yet
/// running). May fall short of ExecutorWidth() − 1 when the system refuses
/// a thread.
uint32_t ExecutorHelpers();

namespace internal {

// Calls (*fn)(slot, begin, end) on the callable ParallelFor was given.
using ChunkFn = void (*)(void* fn, uint32_t slot, uint32_t begin,
                         uint32_t end);

// Publishes the loop, works it on the calling thread, waits for the
// helpers that joined, and rethrows the first exception a chunk threw.
void RunJob(uint32_t count, uint32_t max_slots, ChunkFn run, void* fn);

}  // namespace internal

/// Runs fn(slot, begin, end) over disjoint chunks covering [0, count)
/// exactly once, on the calling thread and on up to max_slots − 1 of the
/// executor's helpers. `slot` < max_slots is unique among the job's
/// participants — one participant keeps its slot for every chunk it runs —
/// so callers can index per-slot scratch without locks. Which chunks a
/// slot runs depends on scheduling, so results must not. Returns when
/// every chunk is done; an exception thrown by a chunk stops further
/// chunks from starting and is rethrown here. max_slots ≤ 1 or count ≤ 1
/// runs fn(0, 0, count) inline, without touching the executor or the heap.
/// `fn` is called by reference: no copy, no std::function.
template <typename Fn>
void ParallelFor(uint32_t count, uint32_t max_slots, Fn&& fn) {
  if (count == 0) return;
  if (max_slots <= 1 || count == 1) {
    fn(0u, 0u, count);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  internal::RunJob(
      count, max_slots,
      [](void* f, uint32_t slot, uint32_t begin, uint32_t end) {
        (*static_cast<F*>(f))(slot, begin, end);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace vblock
