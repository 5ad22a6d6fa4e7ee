// Unit tests for src/common: Status/Result, RNG, string utils, timers,
// table printer, the service's task queue and the process executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/solver.h"
#include "gen/generators.h"
#include "prob/probability_models.h"

namespace vblock {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad probability");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad probability");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad probability");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, DeadlineExceededFactory) {
  Status s = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: too slow");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ConstructingFromOkStatusBecomesError) {
  Result<int> r(Status::OK());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------------- RNG --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(123), b(124);
  int differing = 0;
  for (int i = 0; i < 100; ++i) differing += (a() != b());
  EXPECT_GT(differing, 90);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(9);
  const int kN = 100000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, MixSeedSeparatesStreams) {
  // Streams i and i+1 from the same base must differ.
  EXPECT_NE(MixSeed(1, 0), MixSeed(1, 1));
  EXPECT_NE(MixSeed(1, 0), MixSeed(2, 0));
}

TEST(RngTest, SplitMix64KnownVector) {
  // Reference: first output of SplitMix64 with state 0 is 0xE220A8397B1DCDAF.
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64Next(state), 0xE220A8397B1DCDAFULL);
}

// ---------------------------------------------------------------- String --

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hello \t\n"), "hello");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringUtilTest, SplitFields) {
  auto fields = SplitFields("1\t2  3,4");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "1");
  EXPECT_EQ(fields[3], "4");
  EXPECT_TRUE(SplitFields("   ").empty());
}

TEST(StringUtilTest, CommentLines) {
  EXPECT_TRUE(IsCommentLine("# snap header"));
  EXPECT_TRUE(IsCommentLine("  % matrix market"));
  EXPECT_TRUE(IsCommentLine(""));
  EXPECT_TRUE(IsCommentLine("   "));
  EXPECT_FALSE(IsCommentLine("0 1"));
}

TEST(StringUtilTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(ParseUint64("  7 ", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.5", &v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(ParseDouble("1e-3", &v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringUtilTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(0.5e-6 * 3), "1.5us");
  EXPECT_EQ(FormatSeconds(0.0123), "12.3ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.50s");
  EXPECT_EQ(FormatSeconds(600), "10.0min");
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.ElapsedSeconds(), 0.015);
  EXPECT_LT(t.ElapsedSeconds(), 5.0);
}

TEST(TimerTest, ResetRestarts) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 0.010);
}

TEST(DeadlineTest, NoBudgetNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, ExpiresAfterBudget) {
  Deadline d(0.01);
  EXPECT_FALSE(d.Expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(d.Expired());
}

// --------------------------------------------------------- TablePrinter --

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinterTest, HandlesRaggedRows) {
  TablePrinter t({"a", "b"});
  t.AddRow({"only-one"});
  t.AddRow({"1", "2", "3-extra"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("only-one"), std::string::npos);
  EXPECT_NE(out.find("3-extra"), std::string::npos);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, SubmitRunsEveryTaskOnAWorker) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2u);
  std::atomic<int> count{0};
  std::promise<void> all_done;
  constexpr int kTasks = 50;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, QueueDepthReportsUnstartedTasks) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  pool.Submit([&, opened] {
    started.set_value();
    opened.wait();
  });
  started.get_future().wait();  // worker is now parked inside task 1
  pool.Submit([] {});
  pool.Submit([] {});
  EXPECT_EQ(pool.QueueDepth(), 2u);  // running task not counted
  gate.set_value();
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    pool.Submit([&, opened] {
      opened.wait();
      count.fetch_add(1);
    });
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    gate.set_value();
    // Destruction must execute all 11 tasks before joining.
  }
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPoolTest, SubmitRunsInlineWithoutWorkers) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  int count = 0;
  pool.Submit([&] { ++count; });  // inline: done when Submit returns
  EXPECT_EQ(count, 1);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

// -------------------------------------------------------------- Executor --

// Runs one ParallelFor over `count` indices and checks its contract: every
// index covered exactly once, every slot below max_slots, and no slot held
// by two participants at the same instant. Chunks at every `nest_every`-th
// index run a nested ParallelFor of their own.
void CheckedParallelFor(uint32_t count, uint32_t max_slots,
                        uint32_t nest_every, std::atomic<int>* failures) {
  std::vector<std::atomic<int>> covered(count);
  std::vector<std::atomic<int>> holders(max_slots);
  ParallelFor(count, max_slots, [&](uint32_t slot, uint32_t begin,
                                    uint32_t end) {
    if (slot >= max_slots) {
      failures->fetch_add(1);
      return;
    }
    if (holders[slot].fetch_add(1) != 0) failures->fetch_add(1);
    for (uint32_t i = begin; i < end; ++i) {
      covered[i].fetch_add(1);
      if (nest_every > 0 && i % nest_every == 0) {
        CheckedParallelFor(40, 3, 0, failures);
      }
      std::this_thread::yield();  // widen the window for a slot clash
    }
    holders[slot].fetch_sub(1);
  });
  for (const std::atomic<int>& c : covered) {
    if (c.load() != 1) failures->fetch_add(1);
  }
}

TEST(ExecutorTest, ConcurrentAndNestedCallsKeepTheContract) {
  std::atomic<int> failures{0};
  auto run = std::async(std::launch::async, [&] {
    std::vector<std::thread> callers;
    for (uint32_t c = 0; c < 8; ++c) {
      callers.emplace_back([&, c] {
        for (int rep = 0; rep < 20; ++rep) {
          CheckedParallelFor(500 + 37 * c, 2 + c % 5, 50, &failures);
        }
      });
    }
    for (std::thread& t : callers) t.join();
  });
  // Watchdog: a deadlock would hang the callers; fail loudly instead.
  if (run.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    std::fprintf(stderr, "ParallelFor callers still running after 120 s\n");
    std::abort();
  }
  EXPECT_EQ(failures.load(), 0);
}

// Every index once, from the plain caller and from service-style tasks on
// a ThreadPool whose workers call ParallelFor themselves.
TEST(ExecutorTest, ParallelForCoversEveryIndexOnce) {
  std::atomic<int> task_failures{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&] { CheckedParallelFor(300, 4, 0, &task_failures); });
    }
    std::vector<uint32_t> touched(100, 0);
    ParallelFor(100, 4, [&](uint32_t, uint32_t begin, uint32_t end) {
      for (uint32_t i = begin; i < end; ++i) touched[i] += 1;
    });
    for (uint32_t v : touched) EXPECT_EQ(v, 1u);
  }  // drains the submitted tasks
  EXPECT_EQ(task_failures.load(), 0);
}

TEST(ExecutorTest, ChunkExceptionReachesTheCaller) {
  EXPECT_THROW(ParallelFor(1000, 4,
                           [](uint32_t, uint32_t begin, uint32_t end) {
                             if (begin <= 500 && 500 < end) {
                               throw std::runtime_error("chunk failed");
                             }
                           }),
               std::runtime_error);
  std::atomic<int> failures{0};
  CheckedParallelFor(200, 4, 0, &failures);  // the executor still serves
  EXPECT_EQ(failures.load(), 0);
}

TEST(ExecutorTest, WidthIsClampedAndInlineCallsStayOnTheCaller) {
  EXPECT_GE(ExecutorWidth(), 1u);
  EXPECT_LE(ExecutorWidth(), kMaxExecutorWidth);
  const std::thread::id caller = std::this_thread::get_id();
  bool inline_ran = false;
  ParallelFor(50, 1, [&](uint32_t slot, uint32_t begin, uint32_t end) {
    inline_ran = slot == 0 && begin == 0 && end == 50 &&
                 std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(inline_ran);
}

// Threads of this process, from /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("Threads:")) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ExecutorTest, ConcurrentSolvesAddAtMostTheHelpers) {
  const int before = ProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  const Graph g = WithWeightedCascade(GenerateBarabasiAlbert(2000, 3, 5));
  SolverOptions options;
  options.algorithm = Algorithm::kAdvancedGreedy;
  options.budget = 5;
  options.theta = 2000;
  options.threads = 8;
  constexpr int kSolves = 8;
  std::atomic<int> running{kSolves};
  std::atomic<int> failed{0};
  std::vector<std::thread> solvers;
  for (int s = 0; s < kSolves; ++s) {
    solvers.emplace_back([&, s] {
      const VertexId seed = static_cast<VertexId>(s);
      if (!SolveImin(g, {seed}, options).ok()) failed.fetch_add(1);
      running.fetch_sub(1);
    });
  }
  int peak = before;
  while (running.load() > 0) {
    peak = std::max(peak, ProcessThreads());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::thread& t : solvers) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_LE(peak, before + kSolves + static_cast<int>(ExecutorHelpers()));
}

}  // namespace
}  // namespace vblock
