// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Hostile-input battery for the line protocol: seeded random byte
// streams through the framer and a live session (every line gets exactly
// one reply, nothing crashes), plus the SerializeCommand/ParseCommand
// round-trip property over randomized valid requests.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "net/line_framer.h"
#include "service/protocol.h"

namespace vblock {
namespace {

class ProtocolFuzz : public ::testing::TestWithParam<uint64_t> {};

// -- random generators ------------------------------------------------------

std::string RandomToken(Rng& rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-./";
  const size_t len = 1 + rng.NextBounded(max_len);
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

std::vector<VertexId> RandomVertices(Rng& rng) {
  std::vector<VertexId> out;
  const size_t n = 1 + rng.NextBounded(6);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<VertexId>(rng.NextBounded(100000)));
  }
  return out;
}

Edge RandomEdge(Rng& rng) {
  Edge e;
  e.source = static_cast<VertexId>(rng.NextBounded(100000));
  e.target = static_cast<VertexId>(rng.NextBounded(100000));
  e.probability = 0.001 + 0.998 * rng.NextDouble();
  return e;
}

Command RandomCommand(Rng& rng) {
  Command cmd;
  switch (rng.NextBounded(10)) {
    case 0: {
      cmd.kind = Command::Kind::kLoadGen;
      cmd.name = RandomToken(rng, 12);
      cmd.source = RandomToken(rng, 12);
      cmd.scale = 0.01 + 0.99 * rng.NextDouble();
      cmd.gen_seed = rng();
      cmd.load.prob_seed = cmd.gen_seed;
      break;
    }
    case 1: {
      cmd.kind = Command::Kind::kLoadFile;
      cmd.name = RandomToken(rng, 12);
      cmd.source = RandomToken(rng, 24);
      cmd.undirected = rng.NextBernoulli(0.5);
      cmd.load.read.undirected = cmd.undirected;
      break;
    }
    case 2: {
      cmd.kind = Command::Kind::kSolve;
      cmd.request.graph = RandomToken(rng, 12);
      cmd.request.query.seeds = RandomVertices(rng);
      cmd.request.query.budget =
          static_cast<uint32_t>(rng.NextBounded(1000));
      const Algorithm algorithms[] = {
          Algorithm::kRandom,         Algorithm::kOutDegree,
          Algorithm::kPageRank,       Algorithm::kBetweenness,
          Algorithm::kBaselineGreedy, Algorithm::kAdvancedGreedy,
          Algorithm::kGreedyReplace};
      cmd.request.query.algorithm = algorithms[rng.NextBounded(7)];
      // Each optional knob is independently set or left at "service
      // default" — both states must round-trip.
      if (rng.NextBernoulli(0.7)) {
        cmd.request.query.theta =
            static_cast<uint32_t>(rng.NextBounded(100000));
      }
      if (rng.NextBernoulli(0.7)) {
        cmd.request.query.mc_rounds =
            static_cast<uint32_t>(rng.NextBounded(100000));
      }
      if (rng.NextBernoulli(0.7)) cmd.request.query.seed = rng();
      if (rng.NextBernoulli(0.7)) {
        cmd.request.query.sample_reuse = rng.NextBernoulli(0.5)
                                             ? SampleReuse::kPrune
                                             : SampleReuse::kResample;
      }
      if (rng.NextBernoulli(0.7)) {
        cmd.request.query.sampler_kind = rng.NextBernoulli(0.5)
                                             ? SamplerKind::kPerEdgeCoin
                                             : SamplerKind::kGeometricSkip;
      }
      if (rng.NextBernoulli(0.7)) {
        cmd.request.query.time_limit_seconds = rng.NextDouble() * 100;
      }
      // TRACE is a plain flag: absent == false, "TRACE 1" == true. Both
      // states must round-trip (false serializes to nothing).
      cmd.request.query.trace = rng.NextBernoulli(0.5);
      cmd.request.deadline_seconds = rng.NextDouble() * 100;
      break;
    }
    case 3: {
      cmd.kind = Command::Kind::kEval;
      cmd.request.graph = RandomToken(rng, 12);
      cmd.request.query.seeds = RandomVertices(rng);
      if (rng.NextBernoulli(0.7)) cmd.blockers = RandomVertices(rng);
      cmd.eval.mc_rounds = static_cast<uint32_t>(rng.NextBounded(100000));
      cmd.eval.seed = rng();
      cmd.eval.sampler_kind = rng.NextBernoulli(0.5)
                                  ? SamplerKind::kPerEdgeCoin
                                  : SamplerKind::kGeometricSkip;
      break;
    }
    case 4:
      cmd.kind = Command::Kind::kStats;
      break;
    case 5:
      cmd.kind = Command::Kind::kEvictPools;
      break;
    case 6:
      cmd.kind = Command::Kind::kEvictGraph;
      cmd.name = RandomToken(rng, 12);
      break;
    case 8:
      cmd.kind = Command::Kind::kMetrics;
      break;
    case 7: {
      cmd.kind = Command::Kind::kUpdate;
      cmd.name = RandomToken(rng, 12);
      // Each delta group is independently present or absent — including
      // the degenerate all-absent "UPDATE <name>", which must round-trip
      // to an empty delta.
      if (rng.NextBernoulli(0.6)) {
        const size_t n = 1 + rng.NextBounded(4);
        for (size_t i = 0; i < n; ++i) {
          cmd.delta.insert_edges.push_back(RandomEdge(rng));
        }
      }
      if (rng.NextBernoulli(0.6)) {
        const size_t n = 1 + rng.NextBounded(4);
        for (size_t i = 0; i < n; ++i) {
          const Edge e = RandomEdge(rng);
          cmd.delta.delete_edges.push_back({e.source, e.target});
        }
      }
      if (rng.NextBernoulli(0.6)) {
        const size_t n = 1 + rng.NextBounded(4);
        for (size_t i = 0; i < n; ++i) {
          cmd.delta.update_probabilities.push_back(RandomEdge(rng));
        }
      }
      if (rng.NextBernoulli(0.4)) {
        cmd.delta.add_vertices =
            1 + static_cast<uint32_t>(rng.NextBounded(100));
      }
      if (rng.NextBernoulli(0.4)) {
        cmd.delta.delete_vertices = RandomVertices(rng);
      }
      break;
    }
    default:
      cmd.kind = Command::Kind::kQuit;
      break;
  }
  // MODEL/PROB ride on both LOAD forms.
  if (cmd.kind == Command::Kind::kLoadGen ||
      cmd.kind == Command::Kind::kLoadFile) {
    const ProbAssignment models[] = {
        ProbAssignment::kKeepFile, ProbAssignment::kWeightedCascade,
        ProbAssignment::kTrivalency, ProbAssignment::kConstant};
    cmd.load.prob = models[rng.NextBounded(4)];
    cmd.load.constant_probability = rng.NextDouble();
    cmd.load.read.default_probability = cmd.load.constant_probability;
  }
  return cmd;
}

// -- round trip -------------------------------------------------------------

TEST_P(ProtocolFuzz, SerializeParseRoundTrip) {
  Rng rng(MixSeed(GetParam(), 0xf00d));
  for (int i = 0; i < 200; ++i) {
    const Command original = RandomCommand(rng);
    const std::string line = SerializeCommand(original);
    Result<Command> reparsed = ParseCommand(line);
    ASSERT_TRUE(reparsed.ok())
        << "serialized line failed to parse: " << line << " — "
        << reparsed.status().message();
    // The canonical form is a fixed point: serialize(parse(s)) == s.
    EXPECT_EQ(SerializeCommand(*reparsed), line);
    EXPECT_EQ(reparsed->kind, original.kind);
    EXPECT_EQ(reparsed->name, original.name);
    switch (original.kind) {
      case Command::Kind::kLoadGen:
        EXPECT_EQ(reparsed->source, original.source);
        EXPECT_EQ(reparsed->scale, original.scale);
        EXPECT_EQ(reparsed->gen_seed, original.gen_seed);
        EXPECT_EQ(reparsed->load.prob, original.load.prob);
        EXPECT_EQ(reparsed->load.constant_probability,
                  original.load.constant_probability);
        break;
      case Command::Kind::kLoadFile:
        EXPECT_EQ(reparsed->source, original.source);
        EXPECT_EQ(reparsed->undirected, original.undirected);
        EXPECT_EQ(reparsed->load.prob, original.load.prob);
        break;
      case Command::Kind::kSolve: {
        const IminQuery& a = reparsed->request.query;
        const IminQuery& b = original.request.query;
        EXPECT_EQ(reparsed->request.graph, original.request.graph);
        EXPECT_EQ(a.seeds, b.seeds);
        EXPECT_EQ(a.budget, b.budget);
        EXPECT_EQ(a.algorithm, b.algorithm);
        EXPECT_EQ(a.theta, b.theta);
        EXPECT_EQ(a.mc_rounds, b.mc_rounds);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.sample_reuse, b.sample_reuse);
        EXPECT_EQ(a.sampler_kind, b.sampler_kind);
        EXPECT_EQ(a.time_limit_seconds, b.time_limit_seconds);
        EXPECT_EQ(a.trace, b.trace);
        EXPECT_EQ(reparsed->request.deadline_seconds,
                  original.request.deadline_seconds);
        break;
      }
      case Command::Kind::kEval:
        EXPECT_EQ(reparsed->request.graph, original.request.graph);
        EXPECT_EQ(reparsed->request.query.seeds,
                  original.request.query.seeds);
        EXPECT_EQ(reparsed->blockers, original.blockers);
        EXPECT_EQ(reparsed->eval.mc_rounds, original.eval.mc_rounds);
        EXPECT_EQ(reparsed->eval.seed, original.eval.seed);
        EXPECT_EQ(reparsed->eval.sampler_kind, original.eval.sampler_kind);
        break;
      case Command::Kind::kUpdate: {
        const GraphDelta& a = reparsed->delta;
        const GraphDelta& b = original.delta;
        ASSERT_EQ(a.insert_edges.size(), b.insert_edges.size());
        for (size_t k = 0; k < b.insert_edges.size(); ++k) {
          EXPECT_EQ(a.insert_edges[k].source, b.insert_edges[k].source);
          EXPECT_EQ(a.insert_edges[k].target, b.insert_edges[k].target);
          // %.17g serialization: probabilities survive bit-exactly.
          EXPECT_EQ(a.insert_edges[k].probability,
                    b.insert_edges[k].probability);
        }
        ASSERT_EQ(a.delete_edges.size(), b.delete_edges.size());
        for (size_t k = 0; k < b.delete_edges.size(); ++k) {
          EXPECT_EQ(a.delete_edges[k].source, b.delete_edges[k].source);
          EXPECT_EQ(a.delete_edges[k].target, b.delete_edges[k].target);
        }
        ASSERT_EQ(a.update_probabilities.size(),
                  b.update_probabilities.size());
        for (size_t k = 0; k < b.update_probabilities.size(); ++k) {
          EXPECT_EQ(a.update_probabilities[k].source,
                    b.update_probabilities[k].source);
          EXPECT_EQ(a.update_probabilities[k].target,
                    b.update_probabilities[k].target);
          EXPECT_EQ(a.update_probabilities[k].probability,
                    b.update_probabilities[k].probability);
        }
        EXPECT_EQ(a.add_vertices, b.add_vertices);
        EXPECT_EQ(a.delete_vertices, b.delete_vertices);
        break;
      }
      default:
        break;
    }
  }
}

// -- parser robustness ------------------------------------------------------

TEST_P(ProtocolFuzz, ParseCommandNeverCrashesOnGarbage) {
  Rng rng(MixSeed(GetParam(), 0xdead));
  for (int i = 0; i < 500; ++i) {
    std::string line;
    const size_t len = rng.NextBounded(200);
    for (size_t j = 0; j < len; ++j) {
      line += static_cast<char>(rng.NextBounded(256));  // NULs included
    }
    Result<Command> cmd = ParseCommand(line);
    if (!cmd.ok()) {
      EXPECT_FALSE(cmd.status().message().empty());
    }
  }
}

// -- live session: one reply per line ---------------------------------------

// Builds a hostile byte stream from interleaved fragments: valid
// commands, garbage (NUL/CR/partial UTF-8), comments, blanks, and lines
// that exceed the framing cap.
std::string HostileStream(Rng& rng, size_t* expect_lines) {
  static const char* kValid[] = {
      "STATS",          "EVICT POOLS",      "SOLVE nope SEEDS 1",
      "stats",          "EVICT GRAPH gone", "EVAL nada SEEDS 3 BLOCKERS -",
      "UPDATE gone PROB 1,2,0.5", "UPDATE gone ADD 1,2,0.5 DEL 3,4",
      "SOLVE nope SEEDS 1 TRACE 1",
  };
  std::string stream;
  *expect_lines = 0;
  const size_t parts = 20 + rng.NextBounded(30);
  for (size_t i = 0; i < parts; ++i) {
    switch (rng.NextBounded(6)) {
      case 0:
      case 1:
        stream += kValid[rng.NextBounded(9)];
        break;
      case 2: {  // raw garbage, NULs and broken UTF-8 included
        const size_t len = rng.NextBounded(40);
        for (size_t j = 0; j < len; ++j) {
          char c = static_cast<char>(rng.NextBounded(256));
          if (c == '\n') c = '?';
          stream += c;
        }
        break;
      }
      case 3:
        stream += "# comment noise";
        break;
      case 4:
        break;  // blank line
      default: {  // overlong line
        stream.append(300 + rng.NextBounded(300), 'A');
        break;
      }
    }
    stream += rng.NextBernoulli(0.2) ? "\r\n" : "\n";
    ++*expect_lines;
  }
  return stream;
}

TEST_P(ProtocolFuzz, LiveSessionAnswersEveryLineExactlyOnce) {
  Rng rng(MixSeed(GetParam(), 0xbeef));
  size_t expect_lines = 0;
  const std::string stream = HostileStream(rng, &expect_lines);

  ServiceOptions options;
  options.num_threads = 1;
  ServiceSession session(options);
  LineFramer framer(256);

  size_t framed = 0;
  size_t offset = 0;
  std::string line;
  bool overlong = false;
  while (offset < stream.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng.NextBounded(17), stream.size() - offset);
    framer.Append(stream.data() + offset, chunk);
    offset += chunk;
    while (framer.Next(&line, &overlong)) {
      ++framed;
      std::string response;
      if (overlong) {
        response = OverlongLineResponse(framer.max_line_bytes());
      } else {
        // Exercise the async path the TCP server uses; every delivery is
        // awaited so ordering stays deterministic.
        std::promise<std::string> delivered;
        session.ExecuteAsync(line, [&delivered](std::string r) {
          delivered.set_value(std::move(r));
        });
        response = delivered.get_future().get();
      }
      const std::string_view trimmed = TrimWhitespace(line);
      if (!overlong && (trimmed.empty() || trimmed[0] == '#')) {
        EXPECT_TRUE(response.empty()) << "line: " << line;
      } else {
        ASSERT_FALSE(response.empty()) << "line: " << line;
        EXPECT_TRUE(response.rfind("OK", 0) == 0 ||
                    response.rfind("ERR", 0) == 0)
            << "response: " << response;
      }
    }
  }
  EXPECT_FALSE(framer.TakeFinal(&line, &overlong));  // stream ends in \n
  EXPECT_EQ(framed, expect_lines);
  // Bounded memory even with hostile input: nothing beyond cap + tail.
  EXPECT_LE(framer.buffered_bytes(), framer.max_line_bytes());
}

TEST(LineFramerTest, SplitsIndependentlyOfChunking) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::string> lines;
    std::string stream;
    const size_t n = 1 + rng.NextBounded(10);
    for (size_t i = 0; i < n; ++i) {
      lines.push_back(RandomToken(rng, 60));
      stream += lines.back();
      stream += '\n';
    }
    const bool partial = rng.NextBernoulli(0.5);
    if (partial) {
      lines.push_back(RandomToken(rng, 60));
      stream += lines.back();  // no terminator
    }

    LineFramer framer(1024);
    std::vector<std::string> got;
    size_t offset = 0;
    std::string line;
    bool overlong = false;
    while (offset < stream.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng.NextBounded(7), stream.size() - offset);
      framer.Append(stream.data() + offset, chunk);
      offset += chunk;
      while (framer.Next(&line, &overlong)) {
        EXPECT_FALSE(overlong);
        got.push_back(line);
      }
    }
    if (framer.TakeFinal(&line, &overlong)) got.push_back(line);
    EXPECT_EQ(got, lines);
  }
}

TEST(LineFramerTest, OverlongLineIsTruncatedAndFlagged) {
  LineFramer framer(8);
  const std::string input = "0123456789abcdef\nshort\n";
  framer.Append(input.data(), input.size());
  std::string line;
  bool overlong = false;
  ASSERT_TRUE(framer.Next(&line, &overlong));
  EXPECT_TRUE(overlong);
  EXPECT_EQ(line, "01234567");  // retained prefix only
  EXPECT_EQ(framer.discarded_bytes(), 8u);
  ASSERT_TRUE(framer.Next(&line, &overlong));
  EXPECT_FALSE(overlong);
  EXPECT_EQ(line, "short");
  EXPECT_FALSE(framer.Next(&line, &overlong));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vblock
