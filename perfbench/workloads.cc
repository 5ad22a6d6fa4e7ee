// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// The three workloads: set-up, the measured window (in-process QueryService
// or a loopback TcpServer), the correctness gate against standalone
// SolveImin references, the in-process UPDATE probe interleaved with the
// window, and the post-window probes (blocked spread, service and net
// counters).

#include "workloads.h"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "common/string_util.h"
#include "core/evaluator.h"
#include "net/line_client.h"
#include "net/tcp_server.h"
#include "obs/solve_trace.h"
#include "service/protocol.h"
#include "service/query_service.h"

namespace perfbench {

namespace {

using vblock::GraphRegistry;
using vblock::QueryService;

constexpr char kGraph[] = "g";
constexpr uint64_t kGenSeed = 7;
// Set-up is repeated at least kSetupReps times and until kSetupSeconds
// have been spent on it (cheap set-ups get more repetitions, so the
// median stays steady); setup_s is the median.
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 400;
constexpr double kSetupSeconds = 1.0;
constexpr uint32_t kSeedsPerQuery = 3;
// The hot keys, the UPDATE deltas and the blocked_spread query set do not
// depend on the run's seed. Per-key warm GR cost varies with a coefficient
// of variation of about 0.4 between seed sets, so 8 seed-drawn hot keys
// moved solve_p50_ms by ~19% (interquartile) from one run seed to the
// next, and seed-drawn deltas moved update_p50_ms by ~48% on cold_solve.
// Fixed content keeps those steady; the seed still draws the request
// order, the served readers' orders and cold_solve's seed sets.
// blocked_spread then repeats exactly for the same code.
constexpr uint64_t kHotSetSeed = 0x407CEDull;
constexpr uint64_t kFixedSetSeed = 0xB10CEDull;
constexpr uint32_t kFixedQueries = 4;
constexpr uint32_t kSpreadRounds = 20000;
constexpr uint64_t kSpreadSeed = 0x5eedf00dull;
// Distinct UPDATE deltas (each kDeltaEdges edges): the writer and the probe
// go A → B0 → A → B1 → ..., so UPDATE cost averages over
// kDeltaPairs × kDeltaEdges edges.
constexpr uint32_t kDeltaPairs = 5;
// The in-process UPDATE probe runs on a stack of its own (the fixed set's
// pools warm), in slots spread evenly over the untraced window: one slot per
// kProbeEverySeconds of solve time. The window's deadline moves past each
// slot. The host's speed shifts by up to ~20% within seconds, so a probe run
// in one block after the window moved update_p50_ms by ~26% (interquartile)
// from run to run while the solve metrics moved ~13%; spread over the
// window it follows the host as the solves do. A slot runs the same number
// of whole A → B_k → A pairs, sized in set-up to take ~kProbeSlotSeconds:
// the pairs cost up to 2× one another, so with a window of whole multiples
// of kDeltaPairs slots every pair weighs the same in the median.
constexpr double kProbeEverySeconds = 1.0;
constexpr double kProbeSlotSeconds = 0.1;
constexpr uint32_t kReferenceThreads = 3;
constexpr double kDrainSeconds = 60;
constexpr uint32_t kReaders = 3;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

// Seed candidates: the quarter of the vertices with the most out-edges
// (ties by id). Rumours start at active accounts; drawing from one band
// also keeps per-key work comparable from one run seed to the next.
std::vector<VertexId> SeedPool(const vblock::Graph& g) {
  std::vector<VertexId> v(g.NumVertices());
  for (VertexId i = 0; i < g.NumVertices(); ++i) v[i] = i;
  std::stable_sort(v.begin(), v.end(), [&](VertexId a, VertexId b) {
    return g.OutDegree(a) > g.OutDegree(b);
  });
  v.resize(std::max<size_t>(kSeedsPerQuery * 4, v.size() / 4));
  return v;
}

Query MakeQuery(const WorkloadSpec& spec, std::vector<VertexId> seeds,
                uint32_t budget) {
  Query q;
  q.seeds = std::move(seeds);
  q.algorithm = spec.algorithm;
  q.budget = budget;
  q.theta = spec.theta;
  return q;
}

struct Inputs {
  std::vector<VertexId> pool;
  // Hot keys × budgets (key-major).
  std::vector<Query> hot;
  std::vector<Query> fixed;
  std::vector<DeltaPair> deltas;
};

// The i-th UPDATE of the alternating sequence A → B0 → A → B1 → ...
const std::string& UpdateLine(const Inputs& in, uint64_t i) {
  const DeltaPair& pair = in.deltas[(i / 2) % in.deltas.size()];
  return i % 2 == 0 ? pair.forward_line : pair.backward_line;
}

Inputs MakeInputs(const WorkloadSpec& spec, const vblock::Graph& g) {
  Inputs in;
  in.pool = SeedPool(g);
  std::mt19937_64 rng(kHotSetSeed);
  std::set<std::vector<VertexId>> used;
  while (used.size() < spec.hot_keys) {
    std::vector<VertexId> s = DrawSeedSet(in.pool, kSeedsPerQuery, &rng);
    if (!used.insert(s).second) continue;
    for (uint32_t b : spec.budgets) in.hot.push_back(MakeQuery(spec, s, b));
  }
  std::mt19937_64 fixed_rng(kFixedSetSeed);
  const uint32_t fixed_budget = spec.budgets[spec.budgets.size() / 2];
  std::set<VertexId> excluded;
  for (const Query& q : in.hot) excluded.insert(q.seeds.begin(), q.seeds.end());
  std::set<std::vector<VertexId>> fixed_used;
  while (in.fixed.size() < kFixedQueries) {
    std::vector<VertexId> s = DrawSeedSet(in.pool, kSeedsPerQuery, &fixed_rng);
    if (!fixed_used.insert(s).second) continue;
    excluded.insert(s.begin(), s.end());
    in.fixed.push_back(MakeQuery(spec, std::move(s), fixed_budget));
  }
  for (uint32_t k = 0; k < kDeltaPairs; ++k) {
    in.deltas.push_back(MakeStableDelta(g, kGraph, excluded,
                                        vblock::MixSeed(kHotSetSeed, 2 + k)));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Set-up: registry + service (+ loopback server), graph loaded, hot keys warm
// ---------------------------------------------------------------------------

class Stack {
 public:
  Stack(const WorkloadSpec& spec) {
    registry = std::make_unique<GraphRegistry>();
    vblock::ServiceOptions options;
    options.num_threads = spec.service_workers;
    service = std::make_unique<QueryService>(registry.get(), options);
  }
  ~Stack() {
    if (server) {
      server->RequestDrain();
      if (loop.joinable()) loop.join();
      server.reset();
    }
    service.reset();
    registry.reset();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool StartServer() {
    server = std::make_unique<vblock::TcpServer>(registry.get(), service.get());
    if (!server->Start().ok()) return false;
    loop = std::thread([this] { server->Run(); });
    return true;
  }

  std::map<std::string, double> Stats() const {
    std::map<std::string, double> out;
    const std::string line =
        vblock::FormatStats(service->Stats(), registry->size());
    for (std::string_view field : vblock::SplitFields(line, " ")) {
      const size_t eq = field.find('=');
      if (eq == std::string_view::npos) continue;
      double value = 0;
      if (vblock::ParseDouble(field.substr(eq + 1), &value)) {
        out[std::string(field.substr(0, eq))] = value;
      }
    }
    return out;
  }

  std::unique_ptr<GraphRegistry> registry;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<vblock::TcpServer> server;
  std::thread loop;
  GraphRegistry::SnapshotPtr state_a;
};

vblock::IminRequest ToRequest(const Query& q, bool trace) {
  vblock::IminRequest r;
  r.graph = kGraph;
  r.query.seeds = q.seeds;
  r.query.budget = q.budget;
  r.query.algorithm = q.algorithm;
  r.query.theta = q.theta;
  r.query.trace = trace;
  return r;
}

// The warm-up SOLVE of a hot key: AG budget 1 builds (and restores) the
// same pool an AG or GR request of that key checks out.
Query WarmupQuery(const Query& hot) {
  Query q = hot;
  q.algorithm = Algorithm::kAdvancedGreedy;
  q.budget = 1;
  return q;
}

std::vector<VertexId> ParseBlockers(const std::string& line) {
  std::vector<VertexId> out;
  const size_t at = line.find("blockers=");
  if (at == std::string::npos) return out;
  const size_t begin = at + 9;
  const size_t end = line.find(' ', begin);
  const std::string list = line.substr(begin, end - begin);
  for (std::string_view tok : vblock::SplitFields(list, ",")) {
    uint64_t v = 0;
    if (vblock::ParseUint64(tok, &v)) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

double ParseField(const std::string& line, const std::string& key,
                  double fallback = -1) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return fallback;
  const size_t begin = at + needle.size();
  const size_t end = line.find(' ', begin);
  double value = fallback;
  vblock::ParseDouble(line.substr(begin, end - begin), &value);
  return value;
}

// Adds the "stage=<name>:<ms>" fields of a TRACE 1 response tail to
// *stage_ms; returns the restore stage's milliseconds.
double AddStages(const std::string& line, std::array<double, 10>* stage_ms) {
  double restore_ms = 0;
  for (std::string_view field : vblock::SplitFields(line, " ")) {
    if (field.substr(0, 6) != "stage=") continue;
    const size_t colon = field.find(':');
    const std::string_view name = field.substr(6, colon - 6);
    for (uint32_t s = 0; s < vblock::obs::kNumSolveStages; ++s) {
      if (name == vblock::obs::SolveStageName(
                      static_cast<vblock::obs::SolveStage>(s))) {
        double ms = 0;
        vblock::ParseDouble(field.substr(colon + 1), &ms);
        (*stage_ms)[s] += ms;
        if (static_cast<vblock::obs::SolveStage>(s) ==
            vblock::obs::SolveStage::kRestore) {
          restore_ms = ms;
        }
      }
    }
  }
  return restore_ms;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Window bookkeeping
// ---------------------------------------------------------------------------

struct Answer {
  uint32_t query = 0;
  std::vector<VertexId> blockers;
};

// Everything the correctness gate and the metrics need from one or more
// measured windows.
struct Ledger {
  std::vector<Query> queries;
  std::map<Query, uint32_t> index;
  std::vector<Answer> answers;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // ERR, timeout, rebuilt UPDATE (wrong answers later)
  std::vector<std::string> errors;

  uint32_t Intern(const Query& q) {
    auto [it, fresh] = index.emplace(q, static_cast<uint32_t>(queries.size()));
    if (fresh) queries.push_back(q);
    return it->second;
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

struct Window {
  double seconds = 0;
  std::vector<double> latency_ms;
  uint64_t solves_in_window = 0;
  // Traced windows only.
  std::vector<double> wait_ms;
  std::array<double, 10> stage_ms{};
  uint64_t traced = 0;
  // Served windows only.
  std::vector<double> update_ms;
  std::vector<double> lateness_ms;
  std::vector<double> stats_rtt_ms;
  std::vector<double> migrated;
};

void NoteTraced(const vblock::SolverResult& r, double latency_ms, Window* w) {
  if (!r.trace) return;
  double restore_ms = 0;
  for (uint32_t s = 0; s < vblock::obs::kNumSolveStages; ++s) {
    const double ms = static_cast<double>(r.trace->stage_nanos(
                          static_cast<vblock::obs::SolveStage>(s))) *
                      1e-6;
    w->stage_ms[s] += ms;
    if (static_cast<vblock::obs::SolveStage>(s) ==
        vblock::obs::SolveStage::kRestore) {
      restore_ms = ms;
    }
  }
  w->wait_ms.push_back(latency_ms - r.stats.seconds * 1e3 - restore_ms);
  ++w->traced;
}

// In-process closed loop: one client, one request in flight. A `probe`, if
// given, runs at the start of every kProbeEverySeconds of solve time; the
// window's deadline moves past the time it takes.
Window RunInProcessWindow(Stack& stack, const std::function<Query()>& next,
                          double seconds, bool traced, SpanLog* log,
                          uint64_t* request_id, Ledger* ledger,
                          const std::function<void(Window*)>& probe) {
  Window w;
  const uint64_t begin = NowNanos();
  uint64_t end = begin + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t probe_every =
      static_cast<uint64_t>(kProbeEverySeconds * 1e9);
  uint64_t next_probe = begin;
  uint64_t paused = 0;
  while (NowNanos() < end) {
    if (probe && NowNanos() >= next_probe) {
      const uint64_t p0 = NowNanos();
      probe(&w);
      const uint64_t took = NowNanos() - p0;
      end += took;
      next_probe += probe_every + took;
      paused += took;
    }
    const Query q = next();
    const uint32_t qi = ledger->Intern(q);
    const vblock::IminRequest request = ToRequest(q, traced);
    Scope span(traced ? log : nullptr, "service.solve", ++*request_id);
    const uint64_t t0 = NowNanos();
    vblock::Result<vblock::SolverResult> r =
        stack.service->SubmitAndWait(request);
    const uint64_t t1 = NowNanos();
    span.Stop();
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    ++ledger->attempted;
    w.latency_ms.push_back(ms);
    if (t1 <= end) ++w.solves_in_window;
    if (!r.ok()) {
      ledger->Fail("SOLVE: " + r.status().ToString());
      continue;
    }
    ledger->answers.push_back({qi, r->blockers});
    if (traced) NoteTraced(*r, ms, &w);
  }
  w.seconds = SecondsSince(begin) - static_cast<double>(paused) * 1e-9;
  return w;
}

// ---------------------------------------------------------------------------
// Served window: a single-threaded poll loop over 3 closed-loop readers and
// one open-loop writer connection.
// ---------------------------------------------------------------------------

struct Conn {
  enum class Kind { kSolve, kUpdate, kStats };
  struct Pending {
    Kind kind = Kind::kSolve;
    uint32_t query = 0;
    uint64_t sent = 0;
    uint64_t due = 0;
    uint64_t request = 0;
  };
  int fd = -1;
  std::string buffer;
  std::deque<Pending> pending;
  std::mt19937_64 rng;
  std::vector<uint32_t> cycle;  // a reader's current permutation of keys
  size_t cursor = 0;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
  bool Send(const std::string& line) {
    const std::string data = line + "\n";
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  // Reads what is available; appends complete lines to *lines.
  bool Read(std::vector<std::string>* lines) {
    char buf[65536];
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer.append(buf, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      lines->push_back(buffer.substr(0, nl));
      buffer.erase(0, nl + 1);
    }
    return true;
  }
};

struct ChurnState {
  uint64_t updates_applied = 0;  // odd = graph is in state B
};

Window RunServedWindow(Stack& stack, const WorkloadSpec& spec,
                       const Inputs& in, uint64_t seed, uint32_t window_index,
                       double seconds, bool traced, SpanLog* log,
                       uint64_t* request_id, ChurnState* churn,
                       Ledger* ledger) {
  Window w;
  std::vector<std::unique_ptr<Conn>> conns;
  for (uint32_t i = 0; i <= kReaders; ++i) {
    auto c = std::make_unique<Conn>();
    auto fd = vblock::ConnectTcp("127.0.0.1", stack.server->port());
    if (!fd.ok()) {
      ledger->Fail("connect: " + fd.status().ToString());
      return w;
    }
    c->fd = *fd;
    // Each reader walks seeded permutations of the hot (key, budget)
    // pairs — its own order, so readers do not fall into lockstep and
    // coalesce by construction, and every pair weighs the same.
    c->rng.seed(vblock::MixSeed(seed, 100 + 10 * window_index + i));
    conns.push_back(std::move(c));
  }
  Conn& writer = *conns[kReaders];

  const uint64_t begin = NowNanos();
  const uint64_t end = begin + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t period =
      static_cast<uint64_t>(1e9 / std::max(spec.updates_per_second, 1e-9));
  uint64_t next_due = begin + period / 2;

  auto send_solve = [&](Conn& c) {
    if (c.cursor == c.cycle.size()) {
      c.cycle.resize(in.hot.size());
      for (uint32_t k = 0; k < c.cycle.size(); ++k) c.cycle[k] = k;
      std::shuffle(c.cycle.begin(), c.cycle.end(), c.rng);
      c.cursor = 0;
    }
    const uint32_t qi = ledger->Intern(in.hot[c.cycle[c.cursor++]]);
    Conn::Pending p;
    p.query = qi;
    p.sent = NowNanos();
    p.request = ++*request_id;
    if (!c.Send(SolveLine(kGraph, ledger->queries[qi], traced))) {
      ++ledger->attempted;
      ledger->Fail("send SOLVE");
      return;
    }
    c.pending.push_back(p);
  };
  for (uint32_t i = 0; i < kReaders; ++i) send_solve(*conns[i]);

  std::vector<pollfd> fds(conns.size());
  const uint64_t hard_stop =
      end + static_cast<uint64_t>(kDrainSeconds * 1e9);
  while (true) {
    uint64_t now = NowNanos();
    // Open loop: every UPDATE goes out when due, whatever is outstanding.
    while (now < end && next_due <= now) {
      Conn::Pending p;
      p.kind = Conn::Kind::kUpdate;
      p.due = next_due;
      p.sent = now;
      w.lateness_ms.push_back(static_cast<double>(now - next_due) * 1e-6);
      if (writer.Send(UpdateLine(in, churn->updates_applied))) {
        writer.pending.push_back(p);
        ++churn->updates_applied;
      } else {
        ++ledger->attempted;
        ledger->Fail("send UPDATE");
      }
      next_due += period;
    }
    bool outstanding = false;
    for (const auto& c : conns) outstanding |= !c->pending.empty();
    if (now >= end && !outstanding) break;
    if (now >= hard_stop) {
      for (const auto& c : conns) {
        for (size_t k = 0; k < c->pending.size(); ++k) {
          ++ledger->attempted;
          ledger->Fail("timeout");
        }
      }
      break;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i]->fd, POLLIN, 0};
    }
    const uint64_t wake = now < end ? std::min(next_due, end) : hard_stop;
    const int timeout_ms = static_cast<int>(
        std::min<uint64_t>(50, (wake > now ? wake - now : 0) / 1000000 + 1));
    if (poll(fds.data(), fds.size(), timeout_ms) < 0) continue;
    for (size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *conns[i];
      std::vector<std::string> lines;
      if (!c.Read(&lines)) {
        for (size_t k = 0; k < c.pending.size(); ++k) {
          ++ledger->attempted;
          ledger->Fail("connection closed");
        }
        c.pending.clear();
        continue;
      }
      const uint64_t t = NowNanos();
      for (const std::string& line : lines) {
        if (c.pending.empty()) {
          ledger->Fail("unexpected line: " + line);
          continue;
        }
        const Conn::Pending p = c.pending.front();
        c.pending.pop_front();
        const bool ok = line.rfind("OK", 0) == 0;
        if (p.kind == Conn::Kind::kStats) {
          w.stats_rtt_ms.push_back(static_cast<double>(t - p.sent) * 1e-6);
          continue;
        }
        ++ledger->attempted;
        if (p.kind == Conn::Kind::kUpdate) {
          // Timed from when it was due: a stalled writer still counts.
          w.update_ms.push_back(static_cast<double>(t - p.due) * 1e-6);
          if (!ok) {
            ledger->Fail("UPDATE: " + line);
          } else if (ParseField(line, "rebuilt") != 0) {
            ledger->Fail("UPDATE rebuilt pools: " + line);
          } else {
            w.migrated.push_back(ParseField(line, "migrated"));
          }
          Conn::Pending stats;
          stats.kind = Conn::Kind::kStats;
          stats.sent = NowNanos();
          if (c.Send("STATS")) c.pending.push_back(stats);
          continue;
        }
        const double ms = static_cast<double>(t - p.sent) * 1e-6;
        w.latency_ms.push_back(ms);
        if (t <= end) ++w.solves_in_window;
        if (traced && log != nullptr) {
          log->Add("net.solve", p.sent, t, p.request);
        }
        if (!ok) {
          ledger->Fail("SOLVE: " + line);
        } else {
          ledger->answers.push_back({p.query, ParseBlockers(line)});
          if (traced) {
            const double restore_ms = AddStages(line, &w.stage_ms);
            w.wait_ms.push_back(ms - ParseField(line, "solve_ms", 0) -
                                restore_ms);
            ++w.traced;
          }
        }
        if (i < kReaders && NowNanos() < end) send_solve(c);
      }
    }
  }
  w.seconds = SecondsSince(begin);
  return w;
}

// ---------------------------------------------------------------------------
// References
// ---------------------------------------------------------------------------

// Standalone SolveImin answers for every query against `g`, computed on a
// few threads outside the measured window.
std::vector<std::vector<VertexId>> References(const vblock::Graph& g,
                                              const std::vector<Query>& qs,
                                              bool* ok) {
  std::vector<std::vector<VertexId>> out(qs.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> all_ok{true};
  auto work = [&] {
    for (size_t i = next++; i < qs.size(); i = next++) {
      auto r = vblock::SolveImin(g, qs[i].seeds, ReferenceOptions(qs[i]));
      if (r.ok()) {
        out[i] = r->blockers;
      } else {
        all_ok = false;
      }
    }
  };
  std::vector<std::thread> threads;
  const uint32_t n = std::min<uint32_t>(
      kReferenceThreads, static_cast<uint32_t>(std::max<size_t>(qs.size(), 1)));
  for (uint32_t t = 1; t < n; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  *ok = all_ok;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

RunResult RunWorkload(const WorkloadSpec& spec, const Args& args,
                      SpanLog* log) {
  RunResult result;
  vblock::GraphLoadOptions load;
  load.prob = spec.model;
  load.prob_seed = kGenSeed;

  // Inputs are generated against the same graph the service will load,
  // before (and outside) any timing.
  Inputs in;
  {
    GraphRegistry scratch;
    auto snap =
        scratch.LoadGenerated(kGraph, spec.dataset, spec.scale, kGenSeed, load);
    if (!snap.ok()) {
      result.notes.push_back("load failed: " + snap.status().ToString());
      result.correct = false;
      return result;
    }
    in = MakeInputs(spec, (*snap)->graph);
  }
  if (std::any_of(in.deltas.begin(), in.deltas.end(),
                  [](const DeltaPair& d) { return d.forward_line.empty(); })) {
    result.notes.push_back("no class-table-stable delta found");
    result.correct = false;
    return result;
  }

  // Set-up, repeated; the last instance serves the window.
  std::vector<double> setup_s, load_s;
  std::unique_ptr<Stack> stack;
  const uint64_t setup_begin = NowNanos();
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kSetupReps && SecondsSince(setup_begin) >= kSetupSeconds) {
      break;
    }
    stack.reset();
    const uint64_t t0 = NowNanos();
    stack = std::make_unique<Stack>(spec);
    Scope load_span(log, "graph.load");
    auto snap = stack->registry->LoadGenerated(kGraph, spec.dataset,
                                               spec.scale, kGenSeed, load);
    load_s.push_back(static_cast<double>(load_span.Stop()) * 1e-9);
    if (!snap.ok()) {
      result.notes.push_back("load failed: " + snap.status().ToString());
      result.correct = false;
      return result;
    }
    stack->state_a = *snap;
    bool warm_ok = true;
    if (spec.served) {
      warm_ok = stack->StartServer();
      vblock::LineClient client;
      warm_ok = warm_ok &&
                client.Connect("127.0.0.1", stack->server->port()).ok();
      for (size_t k = 0; warm_ok && k < in.hot.size();
           k += spec.budgets.size()) {
        auto r = client.Roundtrip(SolveLine(kGraph, WarmupQuery(in.hot[k]),
                                            false));
        warm_ok = r.ok() && r->rfind("OK", 0) == 0;
      }
    } else {
      for (size_t k = 0; warm_ok && k < in.hot.size();
           k += spec.budgets.size()) {
        warm_ok = stack->service
                      ->SubmitAndWait(ToRequest(WarmupQuery(in.hot[k]), false))
                      .ok();
      }
    }
    if (!warm_ok) {
      result.notes.push_back("set-up failed to pre-warm the hot keys");
      result.correct = false;
      return result;
    }
    setup_s.push_back(SecondsSince(t0));
  }

  // Request sources. cold_solve: a never-seen seed set per request.
  // Otherwise: the hot keys in a seeded order (a fresh permutation per
  // cycle); the served readers draw their own orders in the window.
  std::mt19937_64 order_rng(vblock::MixSeed(args.seed, 3));
  std::set<std::vector<VertexId>> seen;
  for (const Query& q : in.fixed) seen.insert(q.seeds);
  std::vector<uint32_t> cycle;
  size_t cursor = 0;
  std::function<Query()> next = [&]() -> Query {
    if (spec.hot_keys == 0) {
      while (true) {
        std::vector<VertexId> s =
            DrawSeedSet(in.pool, kSeedsPerQuery, &order_rng);
        if (seen.insert(s).second) {
          return MakeQuery(spec, std::move(s), spec.budgets[0]);
        }
      }
    }
    if (cursor == cycle.size()) {
      cycle.resize(in.hot.size());
      for (uint32_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
      std::shuffle(cycle.begin(), cycle.end(), order_rng);
      cursor = 0;
    }
    return in.hot[cycle[cursor++]];
  };

  // Measured windows. The traced run measures half its time untraced (the
  // service and net counters, and the overhead baseline) and half traced.
  Ledger ledger;
  ChurnState churn;
  uint64_t request_id = 0;

  // In-process UPDATE probe (served_churn has its writer): a stack of its
  // own, outside set-up, with the fixed set's pools warm, so that each
  // UPDATE is Apply plus migrating kFixedQueries pools whatever the window
  // leaves in the main cache.
  std::unique_ptr<Stack> probe_stack;
  std::unique_ptr<vblock::ServiceSession> probe_session;
  uint64_t probe_updates = 0;
  std::function<void(Window*)> probe;
  if (!spec.served) {
    probe_stack = std::make_unique<Stack>(spec);
    bool warm_ok = probe_stack->registry
                       ->LoadGenerated(kGraph, spec.dataset, spec.scale,
                                       kGenSeed, load)
                       .ok();
    for (size_t i = 0; warm_ok && i < in.fixed.size(); ++i) {
      warm_ok = probe_stack->service
                    ->SubmitAndWait(ToRequest(in.fixed[i], false))
                    .ok();
    }
    if (!warm_ok) {
      result.notes.push_back("set-up failed to warm the probe's pools");
      result.correct = false;
      return result;
    }
    probe_session = std::make_unique<vblock::ServiceSession>(
        probe_stack->registry.get(), probe_stack->service.get());
    auto run_pairs = [&](uint64_t pairs, Window* w) {
      for (uint64_t i = 0; i < 2 * pairs; ++i) {
        ++ledger.attempted;
        const uint64_t t0 = NowNanos();
        const std::string r =
            probe_session->Execute(UpdateLine(in, probe_updates++));
        w->update_ms.push_back(SecondsSince(t0) * 1e3);
        if (r.rfind("OK", 0) != 0 || ParseField(r, "rebuilt") != 0) {
          ledger.Fail("probe UPDATE: " + r);
        } else {
          w->migrated.push_back(ParseField(r, "migrated"));
        }
      }
    };
    Window sizing;
    const uint64_t t0 = NowNanos();
    run_pairs(kDeltaPairs, &sizing);
    const double pair_seconds = SecondsSince(t0) / kDeltaPairs;
    const uint64_t pairs_per_slot = std::max<uint64_t>(
        1, std::llround(kProbeSlotSeconds / pair_seconds));
    probe = [run_pairs, pairs_per_slot](Window* w) {
      run_pairs(pairs_per_slot, w);
    };
  }

  auto run_window = [&](uint32_t index, double seconds, bool traced) {
    return spec.served
               ? RunServedWindow(*stack, spec, in, args.seed, index, seconds,
                                 traced, log, &request_id, &churn, &ledger)
               : RunInProcessWindow(*stack, next, seconds, traced, log,
                                    &request_id, &ledger,
                                    traced ? nullptr : probe);
  };
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const auto stats_before = stack->Stats();
  Window plain = run_window(0, untraced_seconds, false);
  const auto stats_after = stack->Stats();
  const double peak_rss_mb = PeakRssMb();
  Window traced;
  if (args.trace) traced = run_window(1, args.seconds / 2, true);

  // Back to state A for everything after the window.
  vblock::ServiceSession session(stack->registry.get(), stack->service.get());
  if (churn.updates_applied % 2 == 1) {
    ++ledger.attempted;
    const std::string r =
        session.Execute(UpdateLine(in, churn.updates_applied));
    if (r.rfind("OK", 0) != 0) ledger.Fail("revert UPDATE: " + r);
  }

  // Correctness gate: every answer equals the standalone reference of
  // state A or, on served_churn, of one of the B states the writer visited.
  const vblock::Graph& graph_a = stack->state_a->graph;
  bool refs_ok = true;
  std::vector<std::vector<std::vector<VertexId>>> refs;
  refs.push_back(References(graph_a, ledger.queries, &refs_ok));
  const uint64_t forwards = (churn.updates_applied + 1) / 2;
  for (uint64_t k = 0; k < std::min<uint64_t>(forwards, in.deltas.size());
       ++k) {
    auto graph_b = vblock::ApplyDelta(graph_a, in.deltas[k].forward);
    if (!graph_b.ok()) {
      refs_ok = false;
      continue;
    }
    refs.push_back(References(*graph_b, ledger.queries, &refs_ok));
  }
  if (args.wrong_reference) {
    for (auto& state : refs) {
      for (auto& r : state) {
        if (!r.empty()) r.pop_back();
      }
    }
  }
  if (!refs_ok) result.notes.push_back("a reference solve failed");
  for (const Answer& a : ledger.answers) {
    const bool match = std::any_of(
        refs.begin(), refs.end(),
        [&](const auto& state) { return a.blockers == state[a.query]; });
    if (!match) ledger.Fail("wrong answer");
  }

  // blocked_spread: the fixed query set, served cold after an eviction,
  // checked against its references, then evaluated by fixed-seed
  // Monte-Carlo on state A.
  stack->service->pool_cache().EvictAll();
  auto fixed_ref = References(graph_a, in.fixed, &refs_ok);
  if (args.wrong_reference) {
    for (auto& r : fixed_ref) {
      if (!r.empty()) r.pop_back();
    }
  }
  std::vector<double> spreads;
  std::vector<std::vector<VertexId>> fixed_answers;
  for (size_t i = 0; i < in.fixed.size(); ++i) {
    ++ledger.attempted;
    auto r = stack->service->SubmitAndWait(ToRequest(in.fixed[i], false));
    if (!r.ok()) {
      ledger.Fail("fixed SOLVE: " + r.status().ToString());
      fixed_answers.emplace_back();
      continue;
    }
    if (r->blockers != fixed_ref[i]) ledger.Fail("wrong fixed-set answer");
    fixed_answers.push_back(r->blockers);
    vblock::EvaluationOptions eval;
    eval.mc_rounds = kSpreadRounds;
    eval.seed = kSpreadSeed;
    spreads.push_back(vblock::EvaluateSpread(graph_a, in.fixed[i].seeds,
                                             r->blockers, eval));
  }

  // UPDATE latency: the served writer's, or the in-process probe's.
  const std::vector<double>& update_ms = plain.update_ms;
  const std::vector<double>& migrated = plain.migrated;

  result.attempted = ledger.attempted;
  result.failed = ledger.failed;
  result.correct = refs_ok && ledger.failed == 0;
  for (const std::string& e : ledger.errors) result.notes.push_back(e);
  if (plain.latency_ms.size() < 100) {
    result.notes.push_back("fewer than 100 SOLVE samples: p90 has fewer "
                           "than ten samples beyond it");
  }
  {
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "window service counters: submitted=%.0f pool_hits=%.0f "
        "pool_misses=%.0f coalesced=%.0f",
        stats_after.at("submitted") - stats_before.at("submitted"),
        stats_after.at("pool_hits") - stats_before.at("pool_hits"),
        stats_after.at("pool_misses") - stats_before.at("pool_misses"),
        stats_after.at("coalesced") - stats_before.at("coalesced"));
    result.notes.push_back(buf);
  }
  {
    std::string deciles = "SOLVE latency deciles (ms):";
    for (int d = 1; d <= 9; ++d) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.1f",
                    Percentile(plain.latency_ms, d / 10.0));
      deciles += buf;
    }
    result.notes.push_back(deciles);
  }
  if (!spec.served) {
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "UPDATE probe: %zu UPDATEs in the window, median %.3f ms",
                  update_ms.size(), Percentile(update_ms, 0.5));
    result.notes.push_back(buf);
  }
  if (!plain.lateness_ms.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "writer lateness: mean %.3f ms, max %.3f ms over %zu "
                  "UPDATEs",
                  Mean(plain.lateness_ms),
                  *std::max_element(plain.lateness_ms.begin(),
                                    plain.lateness_ms.end()),
                  plain.lateness_ms.size());
    result.notes.push_back(buf);
  }
  {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "window: %zu SOLVE samples in %.3f s (%llu completed "
                  "inside), %zu distinct queries",
                  plain.latency_ms.size(), plain.seconds,
                  static_cast<unsigned long long>(plain.solves_in_window),
                  ledger.queries.size());
    result.notes.push_back(buf);
  }

  if (!args.trace) {
    MetricList& m = result.metrics;
    m.Set("setup_s", Percentile(setup_s, 0.5), "s");
    m.Set("solve_p50_ms", Percentile(plain.latency_ms, 0.5), "ms");
    m.Set("solve_p90_ms", Percentile(plain.latency_ms, 0.9), "ms");
    m.Set("solve_qps",
          static_cast<double>(plain.solves_in_window) / args.seconds, "1/s");
    m.Set("update_p50_ms", Percentile(update_ms, 0.5), "ms");
    m.Set("blocked_spread", Mean(spreads), "vertices");
    m.Set("ok_share",
          result.attempted == 0
              ? 0
              : static_cast<double>(result.attempted - result.failed) /
                    static_cast<double>(result.attempted),
          "fraction");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  // Per-layer metrics (traced run).
  MetricList& m = result.metrics;
  m.Set("graph.load_s", Percentile(load_s, 0.5), "s");
  ReplayLayers(spec, in.fixed, fixed_answers, in.deltas[0], load, log, &m,
               &result.notes);

  auto delta = [&](const char* key) {
    return stats_after.at(key) - stats_before.at(key);
  };
  const double checkouts = delta("pool_hits") + delta("pool_misses");
  m.Set("service.wait_ms", Percentile(traced.wait_ms, 0.5), "ms");
  m.Set("service.pool_hit_share",
        checkouts > 0 ? delta("pool_hits") / checkouts : 0, "fraction");
  m.Set("service.coalesced_share",
        delta("submitted") > 0 ? delta("coalesced") / delta("submitted") : 0,
        "fraction");
  // Share of the warm pools each UPDATE carried forward (served: the hot
  // keys, some of which are checked out mid-solve; in-process: the fixed
  // set warmed for the probe).
  m.Set("service.migrated_share",
        Mean(migrated) / (spec.served ? spec.hot_keys : kFixedQueries),
        "fraction");
  m.Set("service.pool_mb", stats_after.at("pool_bytes") / (1 << 20), "MB");
  m.Set("net.stats_rtt_ms", Percentile(plain.stats_rtt_ms, 0.5), "ms");
  m.Set("net.bytes_per_request",
        delta("net_lines") > 0
            ? (delta("net_bytes_in") + delta("net_bytes_out")) /
                  delta("net_lines")
            : 0,
        "B");
  const double p50_plain = Percentile(plain.latency_ms, 0.5);
  m.Set("obs.trace_overhead_share",
        p50_plain > 0 ? Percentile(traced.latency_ms, 0.5) / p50_plain - 1 : 0,
        "fraction");
  // Every stage but kMigrate, which runs outside any request and so never
  // lands in a request's trace.
  for (uint32_t s = 0; s < vblock::obs::kNumSolveStages; ++s) {
    if (static_cast<vblock::obs::SolveStage>(s) ==
        vblock::obs::SolveStage::kMigrate) {
      continue;
    }
    m.Set(std::string("obs.stage_") +
              vblock::obs::SolveStageName(
                  static_cast<vblock::obs::SolveStage>(s)) +
              "_ms",
          traced.traced > 0
              ? traced.stage_ms[s] / static_cast<double>(traced.traced)
              : 0,
          "ms");
  }
  return result;
}

}  // namespace perfbench
