// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Regression tests for the stdin REPL's shutdown contract (RunRepl):
// EOF mid-line executes the final command and still flushes its reply,
// QUIT stops the loop, echo mode prefixes commands, the exit code
// distinguishes clean EOF from stream failure, and retired tokens get ERR.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "service/protocol.h"

namespace vblock {
namespace {

ServiceOptions FastOptions() {
  ServiceOptions options;
  options.num_threads = 1;
  return options;
}

TEST(RunReplTest, EofMidLineExecutesFinalCommandAndFlushes) {
  // The last command has NO trailing newline: its reply must not be lost.
  std::istringstream in("EVICT POOLS\nSTATS");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  const int rc = RunRepl(in, out, &session);
  EXPECT_EQ(rc, 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("OK evicted=0\n"), std::string::npos);
  EXPECT_NE(text.find("OK graphs=0"), std::string::npos);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(RunReplTest, QuitStopsBeforeLaterLines) {
  std::istringstream in("QUIT\nSTATS\n");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  EXPECT_EQ(RunRepl(in, out, &session), 0);
  EXPECT_EQ(out.str(), "OK bye\n");
  EXPECT_TRUE(session.done());
}

TEST(RunReplTest, BlankAndCommentLinesProduceNoOutput) {
  std::istringstream in("\n# a comment\n   \n");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  EXPECT_EQ(RunRepl(in, out, &session), 0);
  EXPECT_EQ(out.str(), "");
}

TEST(RunReplTest, EchoPrefixesEveryInputLine) {
  std::istringstream in("EVICT POOLS\n");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  EXPECT_EQ(RunRepl(in, out, &session, /*echo=*/true), 0);
  EXPECT_EQ(out.str(), "> EVICT POOLS\nOK evicted=0\n");
}

TEST(RunReplTest, EmptyInputIsCleanShutdown) {
  std::istringstream in("");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  EXPECT_EQ(RunRepl(in, out, &session), 0);
  EXPECT_EQ(out.str(), "");
}

TEST(RunReplTest, MetricsEmitsTerminatedExposition) {
  // METRICS is the protocol's only multi-line response; the REPL writes
  // the body verbatim and its "# EOF" terminator gets the final newline.
  std::istringstream in("METRICS\nEVICT POOLS\n");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  EXPECT_EQ(RunRepl(in, out, &session), 0);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("# HELP ", 0), 0u) << text.substr(0, 40);
  EXPECT_NE(text.find("\nvblock_requests_submitted_total 0\n"),
            std::string::npos);
  // The command after the exposition still gets its own reply line.
  EXPECT_NE(text.find("\n# EOF\nOK evicted=0\n"), std::string::npos);
}

TEST(RunReplTest, ErrorResponsesStillCountAsCleanExit) {
  std::istringstream in("FROB\nSOLVE missing SEEDS 1");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  EXPECT_EQ(RunRepl(in, out, &session), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("ERR InvalidArgument unknown command 'FROB'\n"),
            std::string::npos);
  EXPECT_NE(text.find("ERR NotFound no graph named 'missing'\n"),
            std::string::npos);
}

TEST(RunReplTest, SamplerBatchIsRejectedOnSolveAndEval) {
  // `batch` named a second skip kind that no longer exists; both commands
  // that take SAMPLER must refuse it at parse time, before any graph
  // lookup.
  std::istringstream in(
      "SOLVE g SEEDS 1 SAMPLER batch\n"
      "EVAL g SEEDS 1 BLOCKERS - SAMPLER batch\n");
  std::ostringstream out;
  ServiceSession session(FastOptions());
  EXPECT_EQ(RunRepl(in, out, &session), 0);
  EXPECT_EQ(out.str(),
            "ERR InvalidArgument SAMPLER must be coin or skip\n"
            "ERR InvalidArgument SAMPLER must be coin or skip\n");
}

}  // namespace
}  // namespace vblock
