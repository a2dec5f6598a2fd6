// Guardrail against silent regressions: re-runs the gated probes of
// bench/probes and checks them against a BENCH_core.json that micro_core
// wrote, through the gate table bench::CoreGates().
//
// Usage: check_regression <path/to/BENCH_core.json>
//
// Identity gates (pooled ≡ sequential Γ, batch ≡ pairwise scores, the
// exposition smoke test, ...) always run, even without a baseline file.
// Deterministic gates (bytes) run against any baseline. Wall-clock and
// latency gates run only when the baseline's host fingerprint
// (hardware_concurrency, simd_level, build_type) equals this host's: a time
// recorded elsewhere says nothing about this machine.

#include <cstdio>
#include <string>

#include "bench/probes.h"

namespace dcer::bench {
namespace {

int Run(int argc, char** argv) {
  if (argc != 2) {
    std::printf("usage: check_regression <BENCH_core.json>\n");
    return 1;
  }
  JsonValue baseline;
  bool have_baseline = false;
  if (FILE* f = std::fopen(argv[1], "rb")) {
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    std::string error;
    if (!ParseJson(text, &baseline, &error)) {
      std::printf("FAIL: %s: %s\n", argv[1], error.c_str());
      return 1;
    }
    have_baseline = true;
  } else {
    std::printf("no baseline at %s\n", argv[1]);
  }
  Results fresh;
  for (const Probe& probe : Probes()) {
    if (probe.gated) probe.run(&fresh);
  }
  ExpositionSmoke(&fresh);
  std::string report;
  const bool ok = EvaluateGates(CoreGates(), have_baseline ? &baseline : nullptr,
                                fresh, &report);
  std::fputs(report.c_str(), stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dcer::bench

int main(int argc, char** argv) { return dcer::bench::Run(argc, argv); }
