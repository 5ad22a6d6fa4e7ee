// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// vblock_serve — the query service behind a stdin/stdout REPL or a TCP
// listener.
//
// Default mode reads one protocol command per line (service/protocol.h)
// from stdin and writes one response line per command; blank lines and
// '#' comments are echoed nowhere, so a scripted session pipes cleanly:
//
//   $ ./vblock_serve < session.txt
//
// With --tcp the same protocol is served over a loopback TCP listener
// (net/tcp_server.h) to any number of concurrent clients; SIGTERM/SIGINT
// drain gracefully (in-flight commands finish, responses flush, exit 0).
// The line "LISTENING <port>" is printed to stdout once the socket is
// bound, so scripts using --tcp 0 (ephemeral port) can discover it.
//
// Flags:
//   --threads N      requests solved at once         (default 2); each
//                    request's θ-loops also use the idle cores of the
//                    one process-wide executor (no threads per request)
//   --max-queue N    admission queue bound           (default 256)
//   --cache-mb N     warm-pool cache budget in MiB   (default 256)
//   --slow-ms N      slow-query log threshold in ms  (default 0 = off);
//                    requests at/over it emit one "slow_query ..." line
//                    (trace id included) on stderr
//   --tcp PORT       serve TCP on PORT (0 = ephemeral) instead of stdin
//   --bind ADDR      TCP bind address                (default 127.0.0.1)
//   --max-conns N    concurrent TCP connection cap   (default 4096)
//   --echo           stdin mode: echo each command line prefixed "> "

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/string_util.h"
#include "net/line_client.h"
#include "net/tcp_server.h"
#include "service/protocol.h"

namespace {

vblock::TcpServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

bool ParseFlagValue(int argc, char** argv, int* i, const char* flag,
                    uint64_t* out) {
  if (std::strcmp(argv[*i], flag) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", flag);
    std::exit(2);
  }
  if (!vblock::ParseUint64(argv[++*i], out)) {
    std::fprintf(stderr, "malformed value for %s\n", flag);
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  vblock::ServiceOptions options;
  uint64_t threads = 2, max_queue = 256, cache_mb = 256;
  uint64_t slow_ms = 0;
  uint64_t tcp_port = 0, max_conns = 4096;
  bool tcp = false;
  bool echo = false;
  std::string bind_address = "127.0.0.1";
  for (int i = 1; i < argc; ++i) {
    if (ParseFlagValue(argc, argv, &i, "--threads", &threads) ||
        ParseFlagValue(argc, argv, &i, "--max-queue", &max_queue) ||
        ParseFlagValue(argc, argv, &i, "--cache-mb", &cache_mb) ||
        ParseFlagValue(argc, argv, &i, "--slow-ms", &slow_ms) ||
        ParseFlagValue(argc, argv, &i, "--max-conns", &max_conns)) {
      continue;
    }
    if (std::strcmp(argv[i], "--tcp") == 0) {
      tcp = true;
      if (ParseFlagValue(argc, argv, &i, "--tcp", &tcp_port)) continue;
    }
    if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
      bind_address = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--echo") == 0) {
      echo = true;
      continue;
    }
    std::fprintf(stderr,
                 "usage: vblock_serve [--threads N] [--max-queue N] "
                 "[--cache-mb N] [--slow-ms N] [--echo]\n"
                 "                    [--tcp PORT] [--bind ADDR] "
                 "[--max-conns N]\n");
    return 2;
  }
  options.num_threads = static_cast<uint32_t>(threads);
  options.max_queue = static_cast<uint32_t>(max_queue);
  options.cache.max_bytes = cache_mb << 20;
  options.slow_query_ms = slow_ms;  // default sink: stderr

  if (!tcp) {
    vblock::ServiceSession session(options);
    return vblock::RunRepl(std::cin, std::cout, &session, echo);
  }

  vblock::TryRaiseFdLimit(max_conns + 64);
  vblock::GraphRegistry registry;
  vblock::QueryService service(&registry, options);
  vblock::TcpServerOptions server_options;
  server_options.bind_address = bind_address;
  server_options.port = static_cast<uint16_t>(tcp_port);
  server_options.max_connections = static_cast<uint32_t>(max_conns);
  vblock::TcpServer server(&registry, &service, server_options);
  vblock::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "vblock_serve: %s\n",
                 started.message().c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::cout << "LISTENING " << server.port() << "\n" << std::flush;
  const int rc = server.Run();
  g_server = nullptr;
  return rc;
}
