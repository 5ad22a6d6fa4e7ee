// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Framing stress: the canonical smoke session replayed through a real
// socket must produce a transcript byte-identical to the stdin REPL's
// (tools/smoke_expected.txt) no matter how the client segments its
// writes — one coalesced write, 1-byte chunks, or random split points.
// Also pins the TCP shutdown contract: EOF mid-line still executes the
// final command, and a drain lets in-flight work finish.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/line_client.h"
#include "net/load_gen.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "service/protocol.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace vblock {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Removes the wall-clock / allocator-dependent tails, exactly like the CI
// smoke's sed pipeline: the STATS suffix from pool_bytes on, the traced
// SOLVE tail from trace_id on, and the sample value of every METRICS line
// (metric names and '#' headers stay — the exposition name set is pinned,
// its values are not).
std::string StripVolatile(const std::string& transcript) {
  std::string out;
  size_t start = 0;
  while (start <= transcript.size()) {
    const size_t end = transcript.find('\n', start);
    if (end == std::string::npos) {
      out.append(transcript, start, std::string::npos);
      break;
    }
    std::string line = transcript.substr(start, end - start);
    size_t cut = line.find(" pool_bytes=");
    if (cut == std::string::npos) cut = line.find(" trace_id=");
    if (cut != std::string::npos) line.erase(cut);
    if (line.rfind("vblock_", 0) == 0) {
      // "name{labels} value" → "name{labels}"; a '}' may contain a space
      // inside a label value, so cut at the LAST space.
      const size_t space = line.rfind(' ');
      if (space != std::string::npos) line.erase(space);
    }
    out += line;
    out += '\n';
    start = end + 1;
  }
  return out;
}

// One server instance per replay: the smoke session's STATS counters and
// EVICT GRAPH are stateful, so transcripts only reproduce from scratch.
struct ServerFixture {
  GraphRegistry registry;
  QueryService service;
  TcpServer server;
  std::thread thread;

  ServerFixture()
      : service(&registry, ServiceOptions{}),
        server(&registry, &service, TcpServerOptions{}) {
    const Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.message();
    thread = std::thread([this] { server.Run(); });
  }

  ~ServerFixture() {
    server.RequestDrain();
    thread.join();
  }
};

// Replays `script` with write sizes drawn from [min_chunk, max_chunk].
std::string ChunkedReplay(uint16_t port, const std::string& script,
                          size_t min_chunk, size_t max_chunk,
                          uint64_t seed) {
  Result<int> connected = ConnectTcp("127.0.0.1", port, 10.0);
  EXPECT_TRUE(connected.ok()) << connected.status().message();
  const int fd = *connected;
  timeval tv{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  Rng rng(seed);
  size_t offset = 0;
  while (offset < script.size()) {
    size_t chunk = min_chunk;
    if (max_chunk > min_chunk) {
      chunk += rng.NextBounded(max_chunk - min_chunk + 1);
    }
    if (chunk > script.size() - offset) chunk = script.size() - offset;
    size_t sent = 0;
    while (sent < chunk) {
      const ssize_t n = ::send(fd, script.data() + offset + sent,
                               chunk - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        ADD_FAILURE() << "send failed";
        ::close(fd);
        return "";
      }
      sent += static_cast<size_t>(n);
    }
    offset += chunk;
  }
  ::shutdown(fd, SHUT_WR);

  std::string transcript;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      transcript.append(buffer, static_cast<size_t>(n));
      continue;
    }
    EXPECT_EQ(n, 0) << "recv failed before server close";
    break;
  }
  ::close(fd);
  return transcript;
}

class SmokeFraming : public ::testing::Test {
 protected:
  void SetUp() override {
    script_ = ReadFileOrDie(std::string(VBLOCK_REPO_DIR) +
                            "/tools/smoke_session.txt");
    expected_ = ReadFileOrDie(std::string(VBLOCK_REPO_DIR) +
                              "/tools/smoke_expected.txt");
    ASSERT_FALSE(script_.empty());
    ASSERT_FALSE(expected_.empty());
  }

  std::string script_;
  std::string expected_;
};

TEST_F(SmokeFraming, OneCoalescedWrite) {
  ServerFixture fixture;
  Result<std::string> transcript =
      ReplayScript("127.0.0.1", fixture.server.port(), script_);
  ASSERT_TRUE(transcript.ok()) << transcript.status().message();
  EXPECT_EQ(StripVolatile(*transcript), expected_);
}

TEST_F(SmokeFraming, OneBytePerWrite) {
  ServerFixture fixture;
  const std::string transcript =
      ChunkedReplay(fixture.server.port(), script_, 1, 1, 1);
  EXPECT_EQ(StripVolatile(transcript), expected_);
}

TEST_F(SmokeFraming, RandomSplitPoints) {
  ServerFixture fixture;
  const std::string transcript =
      ChunkedReplay(fixture.server.port(), script_, 1, 23, 77);
  EXPECT_EQ(StripVolatile(transcript), expected_);
}

TEST(TcpShutdown, EofMidLineExecutesFinalCommand) {
  ServerFixture fixture;
  // "EVICT POOLS" with NO trailing newline: the reply must not be lost.
  const std::string transcript =
      ChunkedReplay(fixture.server.port(), "EVICT POOLS", 64, 64, 1);
  EXPECT_EQ(transcript, "OK evicted=0\n");
}

// Guarantees the Run() thread is drained and joined even when an ASSERT
// fails mid-test — a joinable std::thread destructor would otherwise
// std::terminate the whole binary. RequestDrain is idempotent, so the
// guard composes with an explicit drain/join inside the test body.
struct DrainGuard {
  TcpServer& server;
  std::thread& thread;
  ~DrainGuard() {
    server.RequestDrain();
    if (thread.joinable()) thread.join();
  }
};

TEST(TcpShutdown, DrainClosesIdleConnectionsAndRunReturnsZero) {
  GraphRegistry registry;
  QueryService service(&registry, ServiceOptions{});
  TcpServer server(&registry, &service, TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  int run_rc = -1;
  std::thread thread([&] { run_rc = server.Run(); });
  DrainGuard guard{server, thread};

  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<std::string> stats = client.Roundtrip("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rfind("OK graphs=0", 0), 0u) << *stats;

  server.RequestDrain();
  thread.join();
  EXPECT_EQ(run_rc, 0);
  // The server closed us out; the next read is a clean EOF.
  Result<std::string> after = client.ReadLine();
  EXPECT_FALSE(after.ok());
}

// The vblock_net_* totals are the service's registry cells: they count
// exactly the traffic a client exchanged, and keep their values after the
// server that recorded them is gone.
TEST(TcpNetCounters, TotalsMatchTrafficAndOutliveTheServer) {
  GraphRegistry registry;
  QueryService service(&registry, ServiceOptions{});
  auto cell = [&service](const char* name) {
    const std::vector<obs::MetricSnapshot> snapshot = service.Stats();
    return obs::FindMetric(snapshot, name)->value;
  };
  // Four lines: two commands, a comment (framed, never answered) and one
  // unknown command (an ERR reply).
  const std::string script = "STATS\nEVICT POOLS\n# note\nBOGUS\n";
  std::string received;
  {
    TcpServer server(&registry, &service, TcpServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    std::thread thread([&] { server.Run(); });
    DrainGuard guard{server, thread};
    received = ChunkedReplay(server.port(), script, script.size(),
                             script.size(), 1);
    server.RequestDrain();
    thread.join();
    EXPECT_EQ(cell("vblock_net_active"), 0);
  }
  EXPECT_EQ(cell("vblock_net_connections_total"), 1);
  EXPECT_EQ(cell("vblock_net_active"), 0);
  EXPECT_EQ(cell("vblock_net_lines_total"), 4);
  EXPECT_EQ(cell("vblock_net_bytes_in_total"), script.size());
  EXPECT_EQ(cell("vblock_net_bytes_out_total"), received.size());
  EXPECT_EQ(cell("vblock_net_errors_total"), 1);

  // Both read paths still scrape, with the same totals.
  ServiceSession session(&registry, &service);
  const std::string stats = session.Execute("STATS");
  const std::string net = " net_connections=1 net_active=0 net_bytes_in=" +
                          std::to_string(script.size()) + " net_bytes_out=" +
                          std::to_string(received.size()) +
                          " net_lines=4 net_errors=1 ";
  EXPECT_NE(stats.find(net), std::string::npos) << stats;
  const std::string metrics = session.Execute("METRICS");
  EXPECT_NE(metrics.find("\nvblock_net_lines_total 4\n"), std::string::npos);
  EXPECT_NE(metrics.find("\nvblock_net_bytes_in_total " +
                         std::to_string(script.size()) + "\n"),
            std::string::npos);
}

TEST(TcpShutdown, DrainLetsInFlightCommandFinish) {
  GraphRegistry registry;
  QueryService service(&registry, ServiceOptions{});
  // This test pins in-flight completion, not the force-close path, and
  // sanitizers slow the Monte-Carlo EVAL by an order of magnitude — a
  // long grace keeps the timer from closing the connection first.
  TcpServerOptions options;
  options.drain_grace_seconds = 120.0;
  TcpServer server(&registry, &service, options);
  ASSERT_TRUE(server.Start().ok());
  int run_rc = -1;
  std::thread thread([&] { run_rc = server.Run(); });
  DrainGuard guard{server, thread};

  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client
                  .Roundtrip("LOAD g GEN EmailCore SCALE 0.1 SEED 7 "
                             "MODEL wc")
                  .ok());
  // A few hundred ms of Monte-Carlo: almost certainly still running when
  // the drain lands.
  ASSERT_TRUE(client
                  .WriteAll("EVAL g SEEDS 1,2,3 BLOCKERS - ROUNDS 400000 "
                            "SEED 5 SAMPLER coin\n")
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.RequestDrain();

  Result<std::string> response = client.ReadLine();
  EXPECT_TRUE(response.ok()) << response.status().message();
  if (response.ok()) {
    EXPECT_EQ(response->rfind("OK spread=", 0), 0u) << *response;
  }
  Result<std::string> after = client.ReadLine();
  EXPECT_FALSE(after.ok());

  thread.join();
  EXPECT_EQ(run_rc, 0);
}

}  // namespace
}  // namespace vblock
