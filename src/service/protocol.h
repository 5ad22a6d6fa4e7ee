// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Text line protocol for the query service, testable entirely in-process.
//
// One request per line, one response line per request (tools/vblock_serve.cc
// is a thin stdin/stdout loop around ServiceSession::Execute). Keywords are
// case-insensitive; vertex lists are comma-separated with no spaces.
//
//   LOAD <name> GEN <dataset> [SCALE <f>] [SEED <n>] [MODEL wc|tr|const]
//        [PROB <p>]
//   LOAD <name> FILE <path> [UNDIRECTED] [MODEL wc|tr|const] [PROB <p>]
//   SOLVE <graph> SEEDS <v,v,..> [BUDGET <n>] [ALG ra|od|pr|bc|bg|ag|gr]
//         [THETA <n>] [MC <n>] [SEED <n>] [REUSE prune|resample]
//         [SAMPLER coin|skip] [TIMELIMIT <s>] [TRACE 0|1] [DEADLINE <s>]
//   EVAL <graph> SEEDS <v,v,..> BLOCKERS <v,v,..|-> [ROUNDS <n>] [SEED <n>]
//        [SAMPLER coin|skip]
//   UPDATE <name> [ADD u,v,p;..] [DEL u,v;..] [PROB u,v,p;..] [ADDV <n>]
//          [DELV v,v,..]
//   STATS
//   METRICS
//   EVICT POOLS
//   EVICT GRAPH <name>
//   QUIT
//
// TRACE 1 requests per-stage timing (docs/DESIGN.md §12): the SOLVE
// response gains a ` trace_id=<n> solve_ms=<f> pool_ms=<f>
// stage=<name>:<ms>...` tail. The deterministic prefix is unchanged and
// tracing never changes result bits; the tail is wall-clock data, so
// transcript diffs strip it with one `sed 's/ trace_id=.*$//'` (trace_id
// deliberately comes first). METRICS returns the service's metrics
// registry in the Prometheus text exposition format — a multi-line
// response terminated by a "# EOF" line (the only multi-line response in
// the protocol; the framing layer forwards it verbatim).
//
// UPDATE applies a GraphDelta to a registered graph (docs/DESIGN.md §11):
// edge groups are ';'-separated, fields within a group ','-separated with
// no spaces. The mutated graph is installed under a fresh epoch and the
// old epoch's warm pools are migrated forward (QueryService::MigrateEpoch)
// — the response reports how many were carried vs dropped. A replacing
// LOAD and EVICT GRAPH instead evict the displaced epoch's pools outright
// (the replace→evict contract of service/graph_registry.h).
//
// Responses: "OK key=value ..." on success, "ERR <CodeName> <message>" on a
// typed error (the Status taxonomy of common/status.h). Every SOLVE/EVAL
// response is deterministic for a fixed session script — timing appears
// only in STATS (whose latency/uptime fields the CI smoke filters out).
//
// Parsing is split from execution so the parser round-trips are unit-
// testable without a service: ParseCommand produces a plain Command value,
// ServiceSession::Execute runs one against its registry + service.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/graph_registry.h"
#include "service/query_service.h"

namespace vblock {

/// Parsed protocol command (tagged union, plain data).
struct Command {
  enum class Kind {
    kLoadGen,
    kLoadFile,
    kSolve,
    kEval,
    kUpdate,
    kStats,
    kMetrics,
    kEvictPools,
    kEvictGraph,
    kQuit,
  };
  Kind kind = Kind::kStats;

  // LOAD (both forms)
  std::string name;           // registry name
  std::string source;         // dataset name (GEN) or path (FILE)
  double scale = 0.05;        // GEN
  uint64_t gen_seed = 1;      // GEN
  bool undirected = false;    // FILE
  GraphLoadOptions load;      // MODEL / PROB resolved into load.prob etc.

  // SOLVE / EVAL
  IminRequest request;              // SOLVE (request.graph reused by EVAL)
  std::vector<VertexId> blockers;   // EVAL
  EvaluationOptions eval;           // EVAL

  // UPDATE (reuses `name` for the registry name)
  GraphDelta delta;

  // EVICT GRAPH reuses `name`.
};

/// Parses one protocol line. InvalidArgument on syntax errors (unknown
/// command, missing/duplicate/malformed arguments). Blank and '#'-comment
/// lines are NOT commands — callers skip them (vblock_serve echoes nothing).
Result<Command> ParseCommand(const std::string& line);

/// Formats `cmd` as one canonical protocol line such that
/// ParseCommand(SerializeCommand(cmd)) reproduces every field ParseCommand
/// can populate (the fuzz battery property-tests this round trip).
/// Unset std::optional solver knobs stay absent — "use the service
/// default" and "use value X" are distinct requests; doubles use
/// max-precision %.17g so they survive the trip bit-exactly. Names/paths
/// containing whitespace are not representable in the line protocol and
/// will not round-trip.
std::string SerializeCommand(const Command& cmd);

/// The one response the server gives a line that exceeded the framing
/// byte cap (net/line_framer.h): a typed InvalidArgument ERR line, so a
/// hostile overlong line still yields exactly one reply.
std::string OverlongLineResponse(size_t max_line_bytes);

/// Formats the STATS response: a fixed projection of a metrics snapshot
/// (QueryService::Stats()). Each field reads one named cell — absent
/// cells read 0 — except qps (completed / uptime) and the lat_* fields
/// (mean and quantiles of vblock_request_latency_seconds, in ms). The
/// deterministic counters come first; allocator-, framing- and
/// wall-clock-dependent fields (from pool_bytes on) last, so log filters
/// can strip them.
std::string FormatStats(const std::vector<obs::MetricSnapshot>& snapshot,
                        size_t num_graphs);

/// One protocol session: the command executor bound to a registry +
/// service pair. The stdin REPL owns its pair (first constructor); the TCP
/// server shares ONE pair across every connection (second constructor) so
/// a graph LOADed by one client serves them all — per-session state is
/// only the QUIT flag.
class ServiceSession {
 public:
  /// Owning: constructs a private registry + service.
  explicit ServiceSession(const ServiceOptions& options = {});

  /// Borrowing: executes against an external registry/service, both of
  /// which must outlive the session. Used by net/tcp_server.h.
  ServiceSession(GraphRegistry* registry, QueryService* service);

  /// Executes one line and returns the response ("OK ..." / "ERR ...").
  /// Blank/comment lines return an empty string (no response). QUIT sets
  /// done() and responds "OK bye".
  std::string Execute(const std::string& line);

  /// Response-delivery callback: the response line, or "" for blank and
  /// comment lines (no response owed).
  using ResponseFn = std::function<void(std::string response)>;

  /// Executes one line without ever blocking the caller on a solve:
  /// `done` is invoked exactly once — synchronously for lines that resolve
  /// immediately (blank, parse errors, STATS/EVICT/QUIT), and from a
  /// worker thread for SOLVE (QueryService::SubmitWithCallback) and for
  /// LOAD/EVAL (dispatched onto the service scheduler; potentially
  /// seconds of graph generation or Monte-Carlo must not stall an event
  /// loop). The session and the shared registry/service must stay alive
  /// until `done` fires; the TCP server guarantees this by keeping the
  /// owning connection referenced from the callback.
  void ExecuteAsync(const std::string& line, ResponseFn done);

  bool done() const { return done_; }

  GraphRegistry& registry() { return *registry_; }
  QueryService& service() { return *service_; }

 private:
  // Run answers ERR ResourceExhausted where RunCommand runs out of memory.
  std::string Run(const Command& cmd);
  std::string RunCommand(const Command& cmd);
  static std::string SolveResponse(const Result<SolverResult>& result);

  std::unique_ptr<GraphRegistry> owned_registry_;
  std::unique_ptr<QueryService> owned_service_;
  GraphRegistry* registry_ = nullptr;
  QueryService* service_ = nullptr;
  bool done_ = false;
};

/// Runs the line-protocol REPL over (in, out): one response line per
/// command, blank/comment lines echoed nowhere, QUIT ends the loop. EOF is
/// a clean shutdown — including EOF mid-line, where the final unterminated
/// line is still executed and its response flushed (a piped session whose
/// last command lacks a trailing newline must not lose its reply). Output
/// is flushed before returning. Returns the process exit code: 0 on QUIT
/// or clean EOF, 1 when the input stream failed with a hard I/O error.
int RunRepl(std::istream& in, std::ostream& out, ServiceSession* session,
            bool echo = false);

}  // namespace vblock
