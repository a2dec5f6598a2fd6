// dcer end-to-end benchmark. Usage:
//
//   dcer_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--trace-out <file>] [--commit <id>]
//                  [--source <digest>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer metrics
// of the traced run, whose spans go to --trace-out. The last line of stdout
// is the JSON result; the exit code is non-zero when any check failed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "ml/simd.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: dcer_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-out <file>] "
               "[--commit <id>] [--source <digest>]\nworkloads:");
  for (const auto& w : perfbench::AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out, commit = "unknown", source = "unknown";
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else if (arg == "--source" && has_value) {
      source = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }

  // The host fingerprint: results from different hosts, builds or commits
  // must never be compared as if they were one.
  const std::string fingerprint =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd\": " +
      JsonString(dcer::simd::LevelName(dcer::simd::ActiveLevel())) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"commit\": " + JsonString(commit) +
      ", \"source_digest\": " + JsonString(source) +
      ", \"workload\": " + JsonString(workload) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"seconds\": " + std::to_string(seconds) +
      ", \"trace\": " + std::to_string(trace) +
      ", \"smoke\": " + (smoke ? "true" : "false") + "}";
  std::printf("fingerprint %s\n", fingerprint.c_str());

  perfbench::RunConfig cfg;
  cfg.spec = spec;
  cfg.seed = static_cast<uint64_t>(seed);
  cfg.seconds = seconds;
  cfg.smoke = smoke;
  perfbench::Report report;
  if (trace == 0) {
    perfbench::RunEndToEnd(cfg, &report);
  } else {
    perfbench::SpanLog::Get().Enable(true);
    perfbench::RunLayers(cfg, &report);
    perfbench::SpanLog::Get().Enable(false);
    if (!trace_out.empty()) {
      report.Check(perfbench::SpanLog::Get().Write(trace_out, fingerprint),
                   "writing spans to " + trace_out);
      std::printf("spans written to %s\n", trace_out.c_str());
    }
  }
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
