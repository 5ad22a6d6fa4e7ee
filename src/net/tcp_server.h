// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Epoll-based TCP front-end for the query service line protocol.
//
// One listening socket, one event-loop thread (the caller of Run()), many
// non-blocking connections. Every connection speaks exactly the protocol
// of service/protocol.h — the same bytes a stdin REPL session would
// produce — so a transcript recorded over TCP diffs clean against
// tools/smoke_expected.txt regardless of how the client segmented its
// writes (net/line_framer.h reassembles lines).
//
// Concurrency model (docs/DESIGN.md §9): the event loop never computes.
// Commands are handed to the shared QueryService / its scheduler through
// ServiceSession::ExecuteAsync; completions land in a mailbox (eventfd)
// that wakes the loop to write responses. Per connection, at most ONE
// command is in flight and parsed lines queue FIFO behind it — that is
// what preserves the strict request/response ordering of the REPL —
// while separate connections execute concurrently on the service's
// worker pool.
//
// Backpressure: a connection whose parsed-line queue or unsent output
// exceeds its caps stops being read (EPOLLIN dropped) until the backlog
// drains; service overload beyond that surfaces as the service's own
// typed ResourceExhausted responses. Hostile input (overlong lines,
// NULs, garbage) yields exactly one ERR line per input line and bounded
// memory.
//
// Drain: RequestDrain() is async-signal-safe (atomic flag + eventfd
// write) — the loop stops accepting, stops reading, finishes every
// queued command, flushes every socket, closes, and Run() returns 0. A
// grace timer force-closes connections whose peers refuse to read.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "service/graph_registry.h"
#include "service/query_service.h"

namespace vblock {

struct TcpServerOptions {
  /// Listen address (dotted IPv4). Loopback by default: this is a trusted
  /// in-cluster protocol with no auth layer.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  int backlog = 128;
  /// Accepts beyond this are immediately closed (counted as errors).
  uint32_t max_connections = 4096;
  /// Line-framing byte cap; longer lines get one typed ERR reply.
  size_t max_line_bytes = 1 << 20;
  /// Parsed-but-unstarted lines a connection may queue before its reads
  /// pause (resumes at half).
  size_t max_queued_lines = 64;
  /// Unsent response bytes that pause a connection's reads.
  size_t write_pause_bytes = 1 << 20;
  /// After RequestDrain(), connections that still cannot flush within
  /// this budget are force-closed so Run() always returns.
  double drain_grace_seconds = 10.0;
};

/// The server. Borrows a registry/service pair shared by every
/// connection (a graph LOADed by one client serves them all); both must
/// outlive the server. Its traffic totals are recorded straight into the
/// service's vblock_net_* registry cells (QueryService::metrics()), so
/// STATS and METRICS report them and they outlive the server.
class TcpServer {
 public:
  TcpServer(GraphRegistry* registry, QueryService* service,
            const TcpServerOptions& options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds + listens. After Ok, port() is the bound port.
  Status Start();

  /// Runs the event loop on the calling thread until a drain completes.
  /// Calls Start() first if it has not been called. Returns 0 on a clean
  /// drain, 1 on a fatal event-loop error (epoll failure).
  int Run();

  /// Begins a graceful drain (see file comment). Async-signal-safe:
  /// callable directly from a SIGTERM handler.
  void RequestDrain();

  uint16_t port() const { return port_; }

 private:
  struct Connection;
  struct Mailbox;

  Status Listen();
  void Accept();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void PullLines(const std::shared_ptr<Connection>& conn);
  // Pump and CloseConnection take the shared_ptr BY VALUE: both can reach
  // connections_.erase(), which destroys the map's shared_ptr — a caller
  // passing a reference aliasing that slot would be left holding a dead
  // object. The copy keeps both the Connection and the handle alive for
  // the duration of the call.
  void Pump(std::shared_ptr<Connection> conn);
  void StartNext(const std::shared_ptr<Connection>& conn);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void CloseConnection(std::shared_ptr<Connection> conn);
  void BeginDrain();

  GraphRegistry* registry_;
  QueryService* service_;
  TcpServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  bool draining_ = false;
  double drain_started_seconds_ = 0;

  // Owns the wakeup eventfd; completion callbacks on worker threads hold
  // it by shared_ptr so a post can never touch a dead server.
  std::shared_ptr<Mailbox> mailbox_;

  std::map<int, std::shared_ptr<Connection>> connections_;

  std::atomic<bool> drain_requested_{false};

  // The service's vblock_net_* cells, recorded by the event loop.
  obs::Counter* connections_total_;  // accepts (excluding over-cap rejects)
  obs::Gauge* active_;               // currently open
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Counter* lines_;   // framed input lines (blank lines included)
  obs::Counter* errors_;  // ERR replies + socket errors + rejects
};

}  // namespace vblock
