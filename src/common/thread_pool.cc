#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>

namespace vblock {

ThreadPool::ThreadPool(uint32_t num_workers) {
  workers_.reserve(num_workers);
  for (uint32_t t = 0; t < num_workers; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return shutdown_ || !tasks_.empty(); });
      // shutdown_ && queue drained: exit. Pending tasks are always
      // executed before the pool dies (see Submit's contract).
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

uint32_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<uint32_t>(tasks_.size());
}

uint32_t ExecutorWidth() {
  // Read once: hardware_concurrency() may read a file on every call.
  static const uint32_t width = std::clamp<uint32_t>(
      std::thread::hardware_concurrency(), 1, kMaxExecutorWidth);
  return width;
}

namespace internal {
namespace {

// One ParallelFor call, on its caller's stack. The executor's mutex
// guards every field below `next`.
struct ParallelJob {
  ParallelJob(ChunkFn run, void* fn, uint32_t count, uint32_t max_slots)
      : run(run),
        fn(fn),
        count(count),
        max_slots(max_slots),
        // About 16 chunks per slot: small enough to even out skewed
        // per-index costs, large enough that claiming one is noise.
        grain(std::max<uint32_t>(1, count / (max_slots * 16))) {}

  const ChunkFn run;
  void* const fn;
  const uint32_t count;
  const uint32_t max_slots;  // participants allowed, the caller included
  const uint32_t grain;      // indices per claimed chunk
  std::atomic<uint64_t> next{0};  // first unclaimed index

  uint32_t slots_taken = 1;  // slot 0 is the caller's
  uint32_t helpers_running = 0;
  bool open = false;  // listed for helpers to join
  std::exception_ptr error;  // first exception any chunk threw
  std::condition_variable helpers_done;
};

// The process-wide executor behind ParallelFor. Helpers sleep until a job
// is open, join the open job with the fewest helpers, and run its chunks
// until none are left.
class Executor {
 public:
  static Executor& Instance() {
    // Never destroyed: helpers sleep in HelperLoop until exit, and a job
    // may still run on a thread that static destruction does not join.
    static Executor* const executor = new Executor(ExecutorWidth() - 1);
    return *executor;
  }

  uint32_t helpers() const { return static_cast<uint32_t>(helpers_.size()); }

  void Run(uint32_t count, uint32_t max_slots, ChunkFn run, void* fn) {
    const uint32_t slots = std::min({max_slots, helpers() + 1, count});
    if (slots <= 1) {
      run(fn, 0, 0, count);
      return;
    }
    ParallelJob job(run, fn, count, slots);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&job);
      job.open = true;
    }
    for (uint32_t h = 1; h < slots; ++h) job_open_.notify_one();
    Work(&job, 0);
    std::unique_lock<std::mutex> lock(mutex_);
    if (job.open) Unlink(&job);
    job.helpers_done.wait(lock, [&] { return job.helpers_running == 0; });
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  explicit Executor(uint32_t num_helpers) {
    open_.reserve(kMaxExecutorWidth);  // loops rarely outnumber cores
    helpers_.reserve(num_helpers);
    for (uint32_t h = 0; h < num_helpers; ++h) {
      try {
        helpers_.emplace_back([this] { HelperLoop(); });
      } catch (const std::system_error&) {
        break;  // the system refused a thread: run with those we have
      }
    }
  }

  // Claims chunks until none are left. The first exception closes the job
  // to further chunks and is kept for the caller.
  void Work(ParallelJob* job, uint32_t slot) {
    try {
      for (;;) {
        const uint64_t begin =
            job->next.fetch_add(job->grain, std::memory_order_relaxed);
        if (begin >= job->count) return;
        const uint64_t end =
            std::min<uint64_t>(begin + job->grain, job->count);
        job->run(job->fn, slot, static_cast<uint32_t>(begin),
                 static_cast<uint32_t>(end));
      }
    } catch (...) {
      job->next.store(job->count, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job->error) job->error = std::current_exception();
    }
  }

  void HelperLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      job_open_.wait(lock, [&] { return !open_.empty(); });
      // A loop whose every chunk is claimed has nothing left to join.
      std::erase_if(open_, [](ParallelJob* j) {
        j->open = j->next.load(std::memory_order_relaxed) < j->count;
        return !j->open;
      });
      if (open_.empty()) continue;
      ParallelJob* const job = *std::min_element(
          open_.begin(), open_.end(), [](ParallelJob* a, ParallelJob* b) {
            return a->helpers_running < b->helpers_running;
          });
      const uint32_t slot = job->slots_taken++;
      ++job->helpers_running;
      if (job->slots_taken == job->max_slots) Unlink(job);
      lock.unlock();
      Work(job, slot);
      lock.lock();
      // Notified under the lock: the caller cannot observe zero, return
      // and destroy the job before this call is done with it.
      if (--job->helpers_running == 0) job->helpers_done.notify_one();
    }
  }

  void Unlink(ParallelJob* job) {
    open_.erase(std::find(open_.begin(), open_.end(), job));
    job->open = false;
  }

  std::mutex mutex_;
  std::condition_variable job_open_;
  std::vector<ParallelJob*> open_;  // loops helpers may join, oldest first
  std::vector<std::thread> helpers_;
};

}  // namespace

void RunJob(uint32_t count, uint32_t max_slots, ChunkFn run, void* fn) {
  Executor::Instance().Run(count, max_slots, run, fn);
}

}  // namespace internal

uint32_t ExecutorHelpers() { return internal::Executor::Instance().helpers(); }

}  // namespace vblock
