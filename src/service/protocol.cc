#include "service/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/solve_trace.h"

namespace vblock {
namespace {

std::string Upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

Status SyntaxError(const std::string& message) {
  return Status::InvalidArgument(message);
}

// Parses a uint32-ranged count flag (BUDGET/THETA/MC/ROUNDS). Rejects —
// rather than silently truncating — values above uint32.
bool ParseUint32(std::string_view s, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseUint64(s, &v) || v > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

// Parses a non-negative, finite seconds flag (TIMELIMIT/DEADLINE). NaN
// must never reach the service: deadline values participate in ordered
// request-dedup keys, where NaN would break strict weak ordering.
bool ParseSeconds(std::string_view s, double* out) {
  return ParseDouble(s, out) && std::isfinite(*out) && *out >= 0.0;
}

// Parses one "u,v,p" edge group (UPDATE ADD/PROB). The probability must be
// a finite number; range checks happen in ApplyDelta where the error can
// name the snapshot.
bool ParseEdgeTriple(std::string_view token, Edge* out) {
  const std::vector<std::string_view> f = SplitFields(token, ",");
  if (f.size() != 3) return false;
  uint64_t u = 0, v = 0;
  if (!ParseUint64(f[0], &u) || u >= kInvalidVertex) return false;
  if (!ParseUint64(f[1], &v) || v >= kInvalidVertex) return false;
  double p = 0;
  if (!ParseDouble(f[2], &p) || !std::isfinite(p)) return false;
  out->source = static_cast<VertexId>(u);
  out->target = static_cast<VertexId>(v);
  out->probability = p;
  return true;
}

// Parses one "u,v" edge group (UPDATE DEL).
bool ParseEdgePair(std::string_view token, EdgeKey* out) {
  const std::vector<std::string_view> f = SplitFields(token, ",");
  if (f.size() != 2) return false;
  uint64_t u = 0, v = 0;
  if (!ParseUint64(f[0], &u) || u >= kInvalidVertex) return false;
  if (!ParseUint64(f[1], &v) || v >= kInvalidVertex) return false;
  out->source = static_cast<VertexId>(u);
  out->target = static_cast<VertexId>(v);
  return true;
}

bool ParseVertexList(std::string_view token, std::vector<VertexId>* out) {
  out->clear();
  if (token == "-") return true;  // explicit empty list
  for (std::string_view field : SplitFields(token, ",")) {
    uint64_t v = 0;
    if (!ParseUint64(field, &v) || v >= kInvalidVertex) return false;
    out->push_back(static_cast<VertexId>(v));
  }
  return !out->empty();
}

bool ParseAlgorithm(std::string_view token, Algorithm* out) {
  const std::string name = Upper(token);
  if (name == "RA") *out = Algorithm::kRandom;
  else if (name == "OD") *out = Algorithm::kOutDegree;
  else if (name == "PR") *out = Algorithm::kPageRank;
  else if (name == "BC") *out = Algorithm::kBetweenness;
  else if (name == "BG") *out = Algorithm::kBaselineGreedy;
  else if (name == "AG") *out = Algorithm::kAdvancedGreedy;
  else if (name == "GR") *out = Algorithm::kGreedyReplace;
  else return false;
  return true;
}

bool ParseSampler(std::string_view token, SamplerKind* out) {
  const std::string name = Upper(token);
  if (name == "COIN") *out = SamplerKind::kPerEdgeCoin;
  else if (name == "SKIP") *out = SamplerKind::kGeometricSkip;
  else return false;
  return true;
}

bool ParseModel(std::string_view token, ProbAssignment* out) {
  const std::string name = Upper(token);
  if (name == "WC") *out = ProbAssignment::kWeightedCascade;
  else if (name == "TR") *out = ProbAssignment::kTrivalency;
  else if (name == "CONST") *out = ProbAssignment::kConstant;
  else return false;
  return true;
}

// Pulls the token after flag position `i` (the flag's value). Returns
// nullopt (and sets *error) when the line ends first.
std::optional<std::string_view> FlagValue(
    const std::vector<std::string_view>& fields, size_t* i,
    Status* error) {
  if (*i + 1 >= fields.size()) {
    *error = SyntaxError("flag '" + std::string(fields[*i]) +
                         "' is missing its value");
    return std::nullopt;
  }
  return fields[++*i];
}

// Rejects a repeated flag (a duplicated flag in a scripted session is far
// more likely a typo that would silently run a different query than an
// intentional last-wins override).
bool MarkFlagSeen(const std::string& flag, std::vector<std::string>* seen) {
  for (const std::string& s : *seen) {
    if (s == flag) return false;
  }
  seen->push_back(flag);
  return true;
}

Result<Command> ParseLoad(const std::vector<std::string_view>& fields) {
  if (fields.size() < 4) {
    return SyntaxError("usage: LOAD <name> GEN|FILE <source> [flags]");
  }
  Command cmd;
  cmd.name = std::string(fields[1]);
  const std::string form = Upper(fields[2]);
  cmd.source = std::string(fields[3]);
  if (form == "GEN") {
    cmd.kind = Command::Kind::kLoadGen;
  } else if (form == "FILE") {
    cmd.kind = Command::Kind::kLoadFile;
  } else {
    return SyntaxError("LOAD form must be GEN or FILE, got '" +
                       std::string(fields[2]) + "'");
  }

  Status error;
  std::vector<std::string> seen;
  for (size_t i = 4; i < fields.size(); ++i) {
    const std::string flag = Upper(fields[i]);
    if (!MarkFlagSeen(flag, &seen)) {
      return SyntaxError("duplicate flag '" + std::string(fields[i]) + "'");
    }
    if (flag == "UNDIRECTED" && cmd.kind == Command::Kind::kLoadFile) {
      cmd.undirected = true;
      cmd.load.read.undirected = true;
      continue;
    }
    auto value = FlagValue(fields, &i, &error);
    if (!value) return error;
    if (flag == "SCALE" && cmd.kind == Command::Kind::kLoadGen) {
      if (!ParseDouble(*value, &cmd.scale)) {
        return SyntaxError("malformed SCALE value");
      }
    } else if (flag == "SEED") {
      if (!ParseUint64(*value, &cmd.gen_seed)) {
        return SyntaxError("malformed SEED value");
      }
      cmd.load.prob_seed = cmd.gen_seed;
    } else if (flag == "MODEL") {
      if (!ParseModel(*value, &cmd.load.prob)) {
        return SyntaxError("MODEL must be wc, tr or const");
      }
    } else if (flag == "PROB") {
      double p = 0;
      if (!ParseDouble(*value, &p) || !(p >= 0.0) || p > 1.0) {
        return SyntaxError("PROB must be in [0, 1]");
      }
      cmd.load.constant_probability = p;
      cmd.load.read.default_probability = p;
    } else {
      return SyntaxError("unknown LOAD flag '" + std::string(fields[i - 1]) +
                         "'");
    }
  }
  return cmd;
}

Result<Command> ParseSolve(const std::vector<std::string_view>& fields) {
  if (fields.size() < 4 || Upper(fields[2]) != "SEEDS") {
    return SyntaxError("usage: SOLVE <graph> SEEDS <v,v,..> [flags]");
  }
  Command cmd;
  cmd.kind = Command::Kind::kSolve;
  cmd.request.graph = std::string(fields[1]);
  if (!ParseVertexList(fields[3], &cmd.request.query.seeds) ||
      cmd.request.query.seeds.empty()) {
    return SyntaxError("malformed SEEDS list");
  }

  Status error;
  std::vector<std::string> seen;
  for (size_t i = 4; i < fields.size(); ++i) {
    const std::string flag = Upper(fields[i]);
    if (!MarkFlagSeen(flag, &seen)) {
      return SyntaxError("duplicate flag '" + std::string(fields[i]) + "'");
    }
    auto value = FlagValue(fields, &i, &error);
    if (!value) return error;
    uint32_t n = 0;
    uint64_t n64 = 0;
    double d = 0;
    if (flag == "BUDGET") {
      if (!ParseUint32(*value, &n)) return SyntaxError("malformed BUDGET");
      cmd.request.query.budget = n;
    } else if (flag == "ALG") {
      if (!ParseAlgorithm(*value, &cmd.request.query.algorithm)) {
        return SyntaxError("unknown algorithm '" + std::string(*value) + "'");
      }
    } else if (flag == "THETA") {
      if (!ParseUint32(*value, &n)) return SyntaxError("malformed THETA");
      cmd.request.query.theta = n;
    } else if (flag == "MC") {
      if (!ParseUint32(*value, &n)) return SyntaxError("malformed MC");
      cmd.request.query.mc_rounds = n;
    } else if (flag == "SEED") {
      if (!ParseUint64(*value, &n64)) return SyntaxError("malformed SEED");
      cmd.request.query.seed = n64;
    } else if (flag == "REUSE") {
      const std::string mode = Upper(*value);
      if (mode == "PRUNE") {
        cmd.request.query.sample_reuse = SampleReuse::kPrune;
      } else if (mode == "RESAMPLE") {
        cmd.request.query.sample_reuse = SampleReuse::kResample;
      } else {
        return SyntaxError("REUSE must be prune or resample");
      }
    } else if (flag == "SAMPLER") {
      SamplerKind kind;
      if (!ParseSampler(*value, &kind)) {
        return SyntaxError("SAMPLER must be coin or skip");
      }
      cmd.request.query.sampler_kind = kind;
    } else if (flag == "TIMELIMIT") {
      if (!ParseSeconds(*value, &d)) {
        return SyntaxError("TIMELIMIT must be a finite non-negative number");
      }
      cmd.request.query.time_limit_seconds = d;
    } else if (flag == "TRACE") {
      if (*value == "1") {
        cmd.request.query.trace = true;
      } else if (*value == "0") {
        cmd.request.query.trace = false;
      } else {
        return SyntaxError("TRACE must be 0 or 1");
      }
    } else if (flag == "DEADLINE") {
      if (!ParseSeconds(*value, &d)) {
        return SyntaxError("DEADLINE must be a finite non-negative number");
      }
      cmd.request.deadline_seconds = d;
    } else {
      return SyntaxError("unknown SOLVE flag '" + std::string(fields[i - 1]) +
                         "'");
    }
  }
  return cmd;
}

Result<Command> ParseEval(const std::vector<std::string_view>& fields) {
  if (fields.size() < 6 || Upper(fields[2]) != "SEEDS" ||
      Upper(fields[4]) != "BLOCKERS") {
    return SyntaxError(
        "usage: EVAL <graph> SEEDS <v,v,..> BLOCKERS <v,v,..|-> [flags]");
  }
  Command cmd;
  cmd.kind = Command::Kind::kEval;
  cmd.request.graph = std::string(fields[1]);
  std::vector<VertexId> seeds;
  if (!ParseVertexList(fields[3], &seeds) || seeds.empty()) {
    return SyntaxError("malformed SEEDS list");
  }
  cmd.request.query.seeds = std::move(seeds);
  if (!ParseVertexList(fields[5], &cmd.blockers)) {
    return SyntaxError("malformed BLOCKERS list");
  }

  Status error;
  std::vector<std::string> seen;
  for (size_t i = 6; i < fields.size(); ++i) {
    const std::string flag = Upper(fields[i]);
    if (!MarkFlagSeen(flag, &seen)) {
      return SyntaxError("duplicate flag '" + std::string(fields[i]) + "'");
    }
    auto value = FlagValue(fields, &i, &error);
    if (!value) return error;
    uint32_t n = 0;
    uint64_t n64 = 0;
    if (flag == "ROUNDS") {
      if (!ParseUint32(*value, &n)) return SyntaxError("malformed ROUNDS");
      cmd.eval.mc_rounds = n;
    } else if (flag == "SEED") {
      if (!ParseUint64(*value, &n64)) return SyntaxError("malformed SEED");
      cmd.eval.seed = n64;
    } else if (flag == "SAMPLER") {
      if (!ParseSampler(*value, &cmd.eval.sampler_kind)) {
        return SyntaxError("SAMPLER must be coin or skip");
      }
    } else {
      return SyntaxError("unknown EVAL flag '" + std::string(fields[i - 1]) +
                         "'");
    }
  }
  return cmd;
}

Result<Command> ParseUpdate(const std::vector<std::string_view>& fields) {
  if (fields.size() < 2) {
    return SyntaxError(
        "usage: UPDATE <name> [ADD u,v,p;..] [DEL u,v;..] [PROB u,v,p;..] "
        "[ADDV <n>] [DELV v,v,..]");
  }
  Command cmd;
  cmd.kind = Command::Kind::kUpdate;
  cmd.name = std::string(fields[1]);

  Status error;
  std::vector<std::string> seen;
  for (size_t i = 2; i < fields.size(); ++i) {
    const std::string flag = Upper(fields[i]);
    if (!MarkFlagSeen(flag, &seen)) {
      return SyntaxError("duplicate flag '" + std::string(fields[i]) + "'");
    }
    auto value = FlagValue(fields, &i, &error);
    if (!value) return error;
    if (flag == "ADD" || flag == "PROB") {
      auto* edges = flag == "ADD" ? &cmd.delta.insert_edges
                                  : &cmd.delta.update_probabilities;
      for (std::string_view group : SplitFields(*value, ";")) {
        Edge e;
        if (!ParseEdgeTriple(group, &e)) {
          return SyntaxError(flag + " groups must be u,v,p with p finite");
        }
        edges->push_back(e);
      }
      if (edges->empty()) {
        return SyntaxError(flag + " needs at least one u,v,p group");
      }
    } else if (flag == "DEL") {
      for (std::string_view group : SplitFields(*value, ";")) {
        EdgeKey k;
        if (!ParseEdgePair(group, &k)) {
          return SyntaxError("DEL groups must be u,v");
        }
        cmd.delta.delete_edges.push_back(k);
      }
      if (cmd.delta.delete_edges.empty()) {
        return SyntaxError("DEL needs at least one u,v group");
      }
    } else if (flag == "ADDV") {
      uint32_t n = 0;
      if (!ParseUint32(*value, &n) || n == 0) {
        return SyntaxError("ADDV must be a positive vertex count");
      }
      cmd.delta.add_vertices = n;
    } else if (flag == "DELV") {
      if (!ParseVertexList(*value, &cmd.delta.delete_vertices) ||
          cmd.delta.delete_vertices.empty()) {
        return SyntaxError("malformed DELV list");
      }
    } else {
      return SyntaxError("unknown UPDATE flag '" + std::string(fields[i - 1]) +
                         "'");
    }
  }
  return cmd;
}

std::string JoinVertices(const std::vector<VertexId>& vertices) {
  if (vertices.empty()) return "-";
  std::string out;
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(vertices[i]);
  }
  return out;
}

std::string FormatFixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

// Max-precision double formatting: %.17g strings survive strtod exactly,
// which is what makes SerializeCommand → ParseCommand lossless.
std::string FormatExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ErrorResponse(const Status& status) {
  return "ERR " + std::string(StatusCodeName(status.code())) + " " +
         status.message();
}

const char* AlgorithmToken(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRandom: return "ra";
    case Algorithm::kOutDegree: return "od";
    case Algorithm::kPageRank: return "pr";
    case Algorithm::kBetweenness: return "bc";
    case Algorithm::kBaselineGreedy: return "bg";
    case Algorithm::kAdvancedGreedy: return "ag";
    case Algorithm::kGreedyReplace: return "gr";
  }
  return "gr";
}

const char* SamplerToken(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kPerEdgeCoin: return "coin";
    case SamplerKind::kGeometricSkip: return "skip";
  }
  return "skip";
}

// " MODEL <m> PROB <p>" suffix shared by both LOAD forms. MODEL is omitted
// for kKeepFile (the protocol has no token for it); PROB is always emitted
// — the parser accepts it with any model, so the constant-probability
// field round-trips unconditionally.
std::string LoadModelSuffix(const GraphLoadOptions& load) {
  std::string out;
  switch (load.prob) {
    case ProbAssignment::kKeepFile: break;
    case ProbAssignment::kWeightedCascade: out += " MODEL wc"; break;
    case ProbAssignment::kTrivalency: out += " MODEL tr"; break;
    case ProbAssignment::kConstant: out += " MODEL const"; break;
  }
  out += " PROB " + FormatExact(load.constant_probability);
  return out;
}

}  // namespace

Result<Command> ParseCommand(const std::string& line) {
  const std::vector<std::string_view> fields = SplitFields(line, " \t\r");
  if (fields.empty()) return SyntaxError("empty command");
  const std::string verb = Upper(fields[0]);
  if (verb == "LOAD") return ParseLoad(fields);
  if (verb == "SOLVE") return ParseSolve(fields);
  if (verb == "EVAL") return ParseEval(fields);
  if (verb == "UPDATE") return ParseUpdate(fields);
  if (verb == "STATS") {
    if (fields.size() != 1) return SyntaxError("STATS takes no arguments");
    Command cmd;
    cmd.kind = Command::Kind::kStats;
    return cmd;
  }
  if (verb == "METRICS") {
    if (fields.size() != 1) return SyntaxError("METRICS takes no arguments");
    Command cmd;
    cmd.kind = Command::Kind::kMetrics;
    return cmd;
  }
  if (verb == "EVICT") {
    if (fields.size() >= 2 && Upper(fields[1]) == "POOLS" &&
        fields.size() == 2) {
      Command cmd;
      cmd.kind = Command::Kind::kEvictPools;
      return cmd;
    }
    if (fields.size() == 3 && Upper(fields[1]) == "GRAPH") {
      Command cmd;
      cmd.kind = Command::Kind::kEvictGraph;
      cmd.name = std::string(fields[2]);
      return cmd;
    }
    return SyntaxError("usage: EVICT POOLS | EVICT GRAPH <name>");
  }
  if (verb == "QUIT" || verb == "EXIT") {
    if (fields.size() != 1) return SyntaxError("QUIT takes no arguments");
    Command cmd;
    cmd.kind = Command::Kind::kQuit;
    return cmd;
  }
  return SyntaxError("unknown command '" + std::string(fields[0]) + "'");
}

std::string FormatStats(const std::vector<obs::MetricSnapshot>& snapshot,
                        size_t num_graphs) {
  // STATS field → registry cell, in wire order. The wall-clock /
  // allocator-dependent fields start at pool_bytes so transcripts can be
  // diffed after stripping everything from there on. The net_* counters
  // are framing-dependent (how a client splits its writes), so they live
  // inside the stripped region too.
  static constexpr std::pair<const char*, const char*> kCells[] = {
      {"submitted", "vblock_requests_submitted_total"},
      {"completed", "vblock_requests_completed_total"},
      {"coalesced", "vblock_requests_coalesced_total"},
      {"rejected", "vblock_requests_rejected_total"},
      {"invalid", "vblock_requests_invalid_total"},
      {"deadline_expired", "vblock_requests_deadline_expired_total"},
      {"queue_depth", "vblock_queue_depth"},
      {"in_flight", "vblock_in_flight"},
      {"pool_hits", "vblock_pool_hits_total"},
      {"pool_misses", "vblock_pool_misses_total"},
      {"pool_inserts", "vblock_pool_inserts_total"},
      {"pool_evictions", "vblock_pool_evictions_total"},
      {"pool_migrations", "vblock_pool_migrations_total"},
      {"pool_evicted_stale", "vblock_pool_evicted_stale_total"},
      {"pool_entries", "vblock_pool_entries"},
      {"pool_bytes", "vblock_pool_bytes"},
      {"net_connections", "vblock_net_connections_total"},
      {"net_active", "vblock_net_active"},
      {"net_bytes_in", "vblock_net_bytes_in_total"},
      {"net_bytes_out", "vblock_net_bytes_out_total"},
      {"net_lines", "vblock_net_lines_total"},
      {"net_errors", "vblock_net_errors_total"},
  };
  auto value = [&snapshot](std::string_view name) {
    const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
    return m != nullptr ? m->value : 0.0;
  };
  std::string out = "OK graphs=" + std::to_string(num_graphs);
  for (const auto& [field, name] : kCells) {
    out += std::string(" ") + field + "=" + FormatFixed(value(name), 0);
  }
  const double uptime = value("vblock_uptime_seconds");
  const double completed = value("vblock_requests_completed_total");
  out += " uptime_s=" + FormatFixed(uptime, 3);
  out += " qps=" + FormatFixed(uptime > 0 ? completed / uptime : 0, 1);
  out += " qps60=" + FormatFixed(value("vblock_qps_60s"), 1);
  const obs::MetricSnapshot* latency =
      obs::FindMetric(snapshot, "vblock_request_latency_seconds");
  const Histogram seconds = latency != nullptr ? latency->histogram
                                                : Histogram();
  out += " lat_mean_ms=" + FormatFixed(seconds.mean() * 1e3, 3);
  out += " lat_p50_ms=" + FormatFixed(seconds.Quantile(0.50) * 1e3, 3);
  out += " lat_p90_ms=" + FormatFixed(seconds.Quantile(0.90) * 1e3, 3);
  out += " lat_p99_ms=" + FormatFixed(seconds.Quantile(0.99) * 1e3, 3);
  return out;
}

std::string SerializeCommand(const Command& cmd) {
  switch (cmd.kind) {
    case Command::Kind::kLoadGen:
      return "LOAD " + cmd.name + " GEN " + cmd.source + " SCALE " +
             FormatExact(cmd.scale) + " SEED " +
             std::to_string(cmd.gen_seed) + LoadModelSuffix(cmd.load);
    case Command::Kind::kLoadFile: {
      std::string out = "LOAD " + cmd.name + " FILE " + cmd.source;
      if (cmd.undirected) out += " UNDIRECTED";
      return out + LoadModelSuffix(cmd.load);
    }
    case Command::Kind::kSolve: {
      const IminQuery& q = cmd.request.query;
      std::string out = "SOLVE " + cmd.request.graph + " SEEDS " +
                        JoinVertices(q.seeds);
      out += " BUDGET " + std::to_string(q.budget);
      out += std::string(" ALG ") + AlgorithmToken(q.algorithm);
      // Unset optionals stay absent — "use the service default" and "use
      // value X" are distinct requests and must round-trip as such.
      if (q.theta) out += " THETA " + std::to_string(*q.theta);
      if (q.mc_rounds) out += " MC " + std::to_string(*q.mc_rounds);
      if (q.seed) out += " SEED " + std::to_string(*q.seed);
      if (q.sample_reuse) {
        out += std::string(" REUSE ") +
               (*q.sample_reuse == SampleReuse::kPrune ? "prune"
                                                       : "resample");
      }
      if (q.sampler_kind) {
        out += std::string(" SAMPLER ") + SamplerToken(*q.sampler_kind);
      }
      if (q.time_limit_seconds) {
        out += " TIMELIMIT " + FormatExact(*q.time_limit_seconds);
      }
      if (q.trace) out += " TRACE 1";
      out += " DEADLINE " + FormatExact(cmd.request.deadline_seconds);
      return out;
    }
    case Command::Kind::kEval: {
      std::string out = "EVAL " + cmd.request.graph + " SEEDS " +
                        JoinVertices(cmd.request.query.seeds) + " BLOCKERS " +
                        JoinVertices(cmd.blockers);
      out += " ROUNDS " + std::to_string(cmd.eval.mc_rounds);
      out += " SEED " + std::to_string(cmd.eval.seed);
      out += std::string(" SAMPLER ") + SamplerToken(cmd.eval.sampler_kind);
      return out;
    }
    case Command::Kind::kUpdate: {
      std::string out = "UPDATE " + cmd.name;
      auto join_triples = [](const std::vector<Edge>& edges) {
        std::string s;
        for (size_t i = 0; i < edges.size(); ++i) {
          if (i > 0) s += ';';
          s += std::to_string(edges[i].source) + ',' +
               std::to_string(edges[i].target) + ',' +
               FormatExact(edges[i].probability);
        }
        return s;
      };
      if (!cmd.delta.insert_edges.empty()) {
        out += " ADD " + join_triples(cmd.delta.insert_edges);
      }
      if (!cmd.delta.delete_edges.empty()) {
        out += " DEL ";
        for (size_t i = 0; i < cmd.delta.delete_edges.size(); ++i) {
          if (i > 0) out += ';';
          out += std::to_string(cmd.delta.delete_edges[i].source) + ',' +
                 std::to_string(cmd.delta.delete_edges[i].target);
        }
      }
      if (!cmd.delta.update_probabilities.empty()) {
        out += " PROB " + join_triples(cmd.delta.update_probabilities);
      }
      if (cmd.delta.add_vertices != 0) {
        out += " ADDV " + std::to_string(cmd.delta.add_vertices);
      }
      if (!cmd.delta.delete_vertices.empty()) {
        out += " DELV " + JoinVertices(cmd.delta.delete_vertices);
      }
      return out;
    }
    case Command::Kind::kStats:
      return "STATS";
    case Command::Kind::kMetrics:
      return "METRICS";
    case Command::Kind::kEvictPools:
      return "EVICT POOLS";
    case Command::Kind::kEvictGraph:
      return "EVICT GRAPH " + cmd.name;
    case Command::Kind::kQuit:
      return "QUIT";
  }
  return "STATS";
}

std::string OverlongLineResponse(size_t max_line_bytes) {
  return ErrorResponse(Status::InvalidArgument(
      "line exceeds " + std::to_string(max_line_bytes) + " bytes"));
}

ServiceSession::ServiceSession(const ServiceOptions& options)
    : owned_registry_(std::make_unique<GraphRegistry>()),
      owned_service_(
          std::make_unique<QueryService>(owned_registry_.get(), options)),
      registry_(owned_registry_.get()),
      service_(owned_service_.get()) {}

ServiceSession::ServiceSession(GraphRegistry* registry, QueryService* service)
    : registry_(registry), service_(service) {}

std::string ServiceSession::Execute(const std::string& line) {
  const std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty() || IsCommentLine(trimmed)) return "";
  Result<Command> cmd = ParseCommand(line);
  if (!cmd.ok()) return ErrorResponse(cmd.status());
  return Run(*cmd);
}

void ServiceSession::ExecuteAsync(const std::string& line, ResponseFn done) {
  const std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty() || IsCommentLine(trimmed)) {
    done("");
    return;
  }
  Result<Command> parsed = ParseCommand(line);
  if (!parsed.ok()) {
    done(ErrorResponse(parsed.status()));
    return;
  }
  switch (parsed->kind) {
    case Command::Kind::kSolve:
      // SubmitWithCallback never blocks the caller.
      service_->SubmitWithCallback(
          parsed->request,
          [done = std::move(done)](const Result<SolverResult>& result) {
            done(SolveResponse(result));
          });
      return;
    case Command::Kind::kLoadGen:
    case Command::Kind::kLoadFile:
    case Command::Kind::kEval:
    case Command::Kind::kUpdate:
      // Graph generation / file I/O / Monte-Carlo evaluation / delta
      // application (CSR rebuild + pool migration) can take seconds — run
      // them on the service scheduler, not the event loop.
      service_->scheduler().Submit(
          [this, cmd = std::move(*parsed), done = std::move(done)] {
            done(Run(cmd));
          });
      return;
    default:
      done(Run(*parsed));
      return;
  }
}

std::string ServiceSession::SolveResponse(
    const Result<SolverResult>& result) {
  if (!result.ok()) return ErrorResponse(result.status());
  const char* pool = result->pool == PoolOutcome::kWarm   ? "warm"
                     : result->pool == PoolOutcome::kCold ? "cold"
                                                          : "none";
  std::string out = "OK blockers=" + JoinVertices(result->blockers) +
                    " rounds=" + std::to_string(result->stats.rounds_completed) +
                    " replacements=" +
                    std::to_string(result->stats.replacements) +
                    " pool=" + pool +
                    " timed_out=" + (result->stats.timed_out ? "1" : "0");
  if (result->trace) {
    // The wall-clock tail exists only under TRACE 1 so untraced responses
    // keep the bit-exact transcript contract. trace_id comes first: one
    // `sed 's/ trace_id=.*$//'` strips everything volatile.
    out += " trace_id=" + std::to_string(result->trace->id());
    out += " solve_ms=" + FormatFixed(result->stats.seconds * 1e3, 3);
    out +=
        " pool_ms=" + FormatFixed(result->stats.pool_build_seconds * 1e3, 3);
    for (const obs::SolveTrace::StageTotal& t : result->trace->Totals()) {
      out += std::string(" stage=") + obs::SolveStageName(t.stage) + ":" +
             FormatFixed(static_cast<double>(t.nanos) * 1e-6, 3);
    }
  }
  return out;
}

std::string ServiceSession::Run(const Command& cmd) {
  // A LOAD, UPDATE or EVAL whose graph cannot be allocated (ADDV far beyond
  // memory) fails alone: the registry installs a snapshot only after
  // building it, so the failed command leaves the epoch where it was.
  try {
    return RunCommand(cmd);
  } catch (const std::bad_alloc&) {
    return ErrorResponse(
        Status::ResourceExhausted("out of memory running this command"));
  }
}

std::string ServiceSession::RunCommand(const Command& cmd) {
  auto error = [](const Status& status) { return ErrorResponse(status); };

  switch (cmd.kind) {
    case Command::Kind::kLoadGen:
    case Command::Kind::kLoadFile: {
      // The replace→evict contract: re-LOADing a name orphans every warm
      // pool of the displaced epoch — without the eviction they would pin
      // cache bytes until LRU pressure (they can never hit again).
      uint64_t replaced_epoch = 0;
      Result<GraphRegistry::SnapshotPtr> snapshot =
          cmd.kind == Command::Kind::kLoadGen
              ? registry_->LoadGenerated(cmd.name, cmd.source, cmd.scale,
                                         cmd.gen_seed, cmd.load,
                                         &replaced_epoch)
              : registry_->LoadEdgeList(cmd.name, cmd.source, cmd.load,
                                        &replaced_epoch);
      if (!snapshot.ok()) return error(snapshot.status());
      if (replaced_epoch != 0) {
        service_->pool_cache().EvictGraph(replaced_epoch);
      }
      return "OK graph=" + cmd.name +
             " n=" + std::to_string((*snapshot)->graph.NumVertices()) +
             " m=" + std::to_string((*snapshot)->graph.NumEdges()) +
             " epoch=" + std::to_string((*snapshot)->epoch);
    }
    case Command::Kind::kSolve:
      return SolveResponse(service_->SubmitAndWait(cmd.request));
    case Command::Kind::kEval: {
      EvalRequest request;
      request.graph = cmd.request.graph;
      request.seeds = cmd.request.query.seeds;
      request.blockers = cmd.blockers;
      request.options = cmd.eval;
      Result<double> spread = service_->Evaluate(request);
      if (!spread.ok()) return error(spread.status());
      return "OK spread=" + FormatFixed(*spread, 4);
    }
    case Command::Kind::kUpdate: {
      Result<GraphRegistry::ApplyOutcome> applied =
          registry_->Apply(cmd.name, cmd.delta);
      if (!applied.ok()) return error(applied.status());
      const QueryService::MigrationOutcome carried =
          service_->MigrateEpoch(applied->snapshot, applied->previous);
      return "OK graph=" + cmd.name +
             " epoch=" + std::to_string(applied->snapshot->epoch) +
             " n=" + std::to_string(applied->snapshot->graph.NumVertices()) +
             " m=" + std::to_string(applied->snapshot->graph.NumEdges()) +
             " migrated=" + std::to_string(carried.migrated) +
             " rebuilt=" + std::to_string(carried.dropped);
    }
    case Command::Kind::kStats:
      return FormatStats(service_->Stats(), registry_->size());
    case Command::Kind::kMetrics:
      // Multi-line Prometheus exposition ending in "# EOF" (no trailing
      // newline — the REPL/TCP writer appends the final one).
      return obs::RenderPrometheusText(service_->metrics().Snapshot());
    case Command::Kind::kEvictPools:
      return "OK evicted=" +
             std::to_string(service_->pool_cache().EvictAll());
    case Command::Kind::kEvictGraph: {
      // Remove reports the dead epoch itself — one registry round trip,
      // and no lost eviction if another session re-LOADs the name between
      // a lookup and the removal.
      uint64_t removed_epoch = 0;
      if (!registry_->Remove(cmd.name, &removed_epoch)) {
        return error(Status::NotFound("no graph named '" + cmd.name + "'"));
      }
      const uint64_t pools = service_->pool_cache().EvictGraph(removed_epoch);
      return "OK graph=" + cmd.name + " pools_evicted=" +
             std::to_string(pools);
    }
    case Command::Kind::kQuit:
      done_ = true;
      return "OK bye";
  }
  return "ERR FailedPrecondition unreachable";
}

int RunRepl(std::istream& in, std::ostream& out, ServiceSession* session,
            bool echo) {
  std::string line;
  while (!session->done() && std::getline(in, line)) {
    if (echo) out << "> " << line << "\n";
    const std::string response = session->Execute(line);
    if (!response.empty()) out << response << "\n" << std::flush;
  }
  // std::getline delivers a final unterminated line before reporting EOF
  // (eofbit without failbit when characters were extracted), so a script
  // whose last command lacks '\n' has already been executed above. All
  // that remains of the clean-shutdown contract is the flush + exit code.
  out.flush();
  return in.bad() ? 1 : 0;
}

}  // namespace vblock
