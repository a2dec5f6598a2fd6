// The benchmark gate table and its evaluator (bench/probes), on synthetic
// baselines and fresh values: what passes, what fails, and which gates a
// host-fingerprint mismatch switches off.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>

#include "bench/probes.h"
#include "obs/json.h"

namespace dcer::bench {
namespace {

// Every key CoreGates() reads, as a baseline recorded on this test's "host".
constexpr char kBaseline[] = R"({
  "hardware_concurrency": 4, "simd_level": "avx2", "build_type": "Release",
  "pairs_equal": true, "inc_pairs_equal": true, "batch_scores_equal": true,
  "service_ok": true, "service_ack_implies_visible": true,
  "exposition_ok": true,
  "dmatch_seq_wall_seconds": 0.100, "dmatch_pooled_wall_seconds": 0.050,
  "dmatch_partial_eval_seconds": 0.048, "dmatch_superstep_seconds": 0.001,
  "dmatch_supersteps": [{"step": 0, "bytes": 4554}, {"step": 1, "bytes": 177},
                        {"step": 2, "bytes": 0}],
  "dmatch_wire_bytes": 4731, "intern_arena_bytes": 587210,
  "inc_full_seconds": 0.0035, "inc_delta_scaling_ratio": 0.84,
  "index_build_columnar_seconds": 0.001,
  "token_jaccard_batch_ns": 26.0, "ml_probe_batch_ns": 27.0,
  "served_query_p99": 0.00005, "update_visibility_lag": 0.001
})";

JsonValue Baseline() {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(kBaseline, &doc, &error)) << error;
  return doc;
}

// Fresh results equal to the baseline except for `changes`, each a
// top-level key with the factor its number is multiplied by.
Results Fresh(std::initializer_list<std::pair<const char*, double>> changes) {
  Results fresh;
  const JsonValue base = Baseline();
  for (const auto& [key, value] : base.members) {
    JsonValue v = value;
    for (const auto& [changed, factor] : changes) {
      if (key == changed) v = JsonValue::Number(v.number * factor);
    }
    fresh.Add(key, Kind::kInfo, std::move(v));
  }
  return fresh;
}

// `fresh` with the value under `key` replaced.
Results With(const Results& fresh, const char* key, JsonValue value) {
  Results out;
  for (const Results::Entry& e : fresh.entries()) {
    out.Add(e.key, e.kind, e.key == key ? value : e.value);
  }
  return out;
}

bool Evaluate(const Results& fresh, std::string* report,
              const JsonValue* baseline) {
  return EvaluateGates(CoreGates(), baseline, fresh, report);
}

TEST(BenchGatesTest, PassesInsideTolerance) {
  const JsonValue base = Baseline();
  std::string report;
  EXPECT_TRUE(Evaluate(Fresh({{"dmatch_pooled_wall_seconds", 1.2},
                              {"dmatch_wire_bytes", 1.2}}),
                       &report, &base))
      << report;
  EXPECT_NE(report.find("dmatch_pooled_wall_seconds: fresh=0.06 "),
            std::string::npos) << report;
  EXPECT_EQ(report.find("FAIL"), std::string::npos) << report;
}

TEST(BenchGatesTest, PassesUnderTheNoiseFloor) {
  // 1 ms → 5 ms is a 5x ratio but only 4 ms of growth, under the 10 ms floor.
  const JsonValue base = Baseline();
  std::string report;
  EXPECT_TRUE(Evaluate(Fresh({{"dmatch_superstep_seconds", 5.0}}), &report,
                       &base))
      << report;
  EXPECT_NE(report.find("noise floor"), std::string::npos) << report;
}

TEST(BenchGatesTest, PassesByHostNormalization) {
  // A slow host slows the sequential normalizer too: +50% pooled over +40%
  // sequential is a 1.07 normalized ratio. The same pooled growth on an
  // unchanged host fails.
  const JsonValue base = Baseline();
  std::string report;
  EXPECT_TRUE(Evaluate(Fresh({{"dmatch_pooled_wall_seconds", 1.5},
                              {"dmatch_seq_wall_seconds", 1.4}}),
                       &report, &base))
      << report;
  EXPECT_NE(report.find("normalized ratio 1.071"), std::string::npos)
      << report;
  report.clear();
  EXPECT_FALSE(Evaluate(Fresh({{"dmatch_pooled_wall_seconds", 1.5}}), &report,
                        &base));
  EXPECT_NE(report.find("FAIL: dmatch_pooled_wall_seconds grew 50.0%"),
            std::string::npos)
      << report;
}

TEST(BenchGatesTest, DeterministicGrowthFails) {
  const JsonValue base = Baseline();
  std::string report;
  EXPECT_FALSE(Evaluate(Fresh({{"dmatch_wire_bytes", 1.3}}), &report, &base));
  EXPECT_NE(report.find("FAIL: dmatch_wire_bytes grew 30.0%"),
            std::string::npos)
      << report;

  // Per-step bytes are gated element by element.
  JsonValue steps;
  ASSERT_TRUE(ParseJson(R"([{"bytes":4554},{"bytes":231},{"bytes":0}])",
                        &steps, nullptr));
  report.clear();
  EXPECT_FALSE(
      Evaluate(With(Fresh({}), "dmatch_supersteps", steps), &report, &base));
  EXPECT_NE(report.find("FAIL: dmatch_supersteps[1].bytes grew 30.5%"),
            std::string::npos)
      << report;
}

TEST(BenchGatesTest, FingerprintMismatchSkipsOnlyTimedGates) {
  JsonValue base = Baseline();
  JsonValue other_host = JsonValue::Of(JsonValue::Type::kObject);
  for (const auto& [key, value] : base.members) {
    other_host.Set(key, key == "hardware_concurrency" ? JsonValue::Number(1)
                                                      : value);
  }
  std::string report;
  // A tripled pooled wall is not judged against another host's baseline...
  EXPECT_TRUE(Evaluate(Fresh({{"dmatch_pooled_wall_seconds", 3.0}}), &report,
                       &other_host))
      << report;
  EXPECT_NE(report.find("hardware_concurrency baseline=1 fresh=4"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("wall and latency gates skipped"), std::string::npos);
  EXPECT_EQ(report.find("dmatch_pooled_wall_seconds:"), std::string::npos);
  // ...but bytes are, and their growth still fails.
  report.clear();
  EXPECT_FALSE(Evaluate(Fresh({{"dmatch_pooled_wall_seconds", 3.0},
                               {"dmatch_wire_bytes", 1.3}}),
                        &report, &other_host));
  EXPECT_NE(report.find("FAIL: dmatch_wire_bytes grew 30.0%"),
            std::string::npos)
      << report;
}

TEST(BenchGatesTest, IdentityGatesRunWithoutABaseline) {
  std::string report;
  EXPECT_TRUE(Evaluate(Fresh({}), &report, nullptr)) << report;
  EXPECT_NE(report.find("no baseline"), std::string::npos);
  const Results broken =
      With(Fresh({}), "pairs_equal", JsonValue::Bool(false));
  report.clear();
  EXPECT_FALSE(Evaluate(broken, &report, nullptr));
  EXPECT_NE(report.find("pairs_equal: FAIL"), std::string::npos) << report;
}

}  // namespace
}  // namespace dcer::bench
