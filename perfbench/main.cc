// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// The vblock benchmark program (see README.md in this directory).
//
//   perfbench --workload cold_solve|warm_replace|served_churn --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//             [--wrong-reference]
//
// Prints a host/build fingerprint line, note lines, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The traced run also writes its spans to DIR/trace-<workload>-<seed>.json.
// Exit code 0 when every answer was correct, 1 when the correctness gate
// failed, 2 on bad arguments.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "sampling/batched_draw.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::string clean;
        for (char c : model) {
          if (c != '"' && c != '\\') clean += c;
        }
        return clean;
      }
    }
  }
  return "unknown";
}

std::string Fingerprint(const perfbench::Args& args) {
  const bool avx2 = vblock::ActiveDrawIsa() == vblock::DrawIsa::kAvx2;
  return "\"fingerprint\": {\"cpu\": \"" + CpuModel() + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"draw_isa\": \"" + (avx2 ? "avx2" : "scalar") +
         "\", \"compiler\": \"" + __VERSION__ + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"workload\": \"" + args.workload +
         "\", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + std::to_string(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_solve|warm_replace|served_churn --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--wrong-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-reference") {
      args.wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) return Usage("unknown workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::SpanLog log;
  perfbench::RunResult r =
      perfbench::RunWorkload(*spec, args, args.trace ? &log : nullptr);

  std::printf("{%s}\n", Fingerprint(args).c_str());
  for (const std::string& note : r.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  if (args.trace) {
    std::string summary = "self time by layer (s):";
    for (const auto& [layer, seconds] : log.SelfSecondsByLayer()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.4f", layer.c_str(), seconds);
      summary += buf;
    }
    std::printf("%s\n", summary.c_str());
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    const std::string header =
        Fingerprint(args) + ",\n\"metrics\": " + r.metrics.ToJson();
    if (log.WriteJson(path, header)) {
      std::printf("spans: %zu written to %s\n", log.spans().size(),
                  path.c_str());
    } else {
      std::printf("note: could not write %s\n", path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.metrics.ToJson().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
