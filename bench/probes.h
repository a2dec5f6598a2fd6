#ifndef DCER_BENCH_PROBES_H_
#define DCER_BENCH_PROBES_H_

// The BENCH_core.json workloads ("probes"), shared by bench/micro_core,
// which records every probe, and bench/check_regression, which re-runs the
// gated probes and checks them against the recorded baseline through one
// gate table. One copy of each workload means the gate always measures what
// the baseline recorded.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace dcer::bench {

/// How a recorded value behaves from run to run; decides how it is gated.
enum class Kind {
  kDeterministic,  // fixed by workload and code: counts, bytes, identity flags
  kWall,           // seconds (or ns per operation) of a timed section
  kLatency,        // per-request or per-batch latency
  kInfo,           // descriptions, derived ratios, per-step detail
};

/// Keyed probe output, in the order micro_core writes it.
class Results {
 public:
  struct Entry {
    std::string key;
    Kind kind;
    JsonValue value;
  };

  void Add(std::string key, Kind kind, JsonValue value);
  void Count(std::string key, double v);  // a kDeterministic number
  void Check(std::string key, bool ok);   // a kDeterministic identity flag
  void Info(std::string key, double v);
  void Info(std::string key, std::string text);

  /// The value recorded under `key`, or nullptr.
  const JsonValue* Find(std::string_view key) const;
  /// The number recorded under `key`; 0 when absent or not a number.
  double Number(std::string_view key) const;
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// The values one run of a measured section produced.
struct Sample {
  struct Value {
    std::string key;
    Kind kind;
    double v;
  };
  void Add(std::string key, Kind kind, double v) {
    values.push_back({std::move(key), kind, v});
  }
  std::vector<Value> values;
};

/// Runs of every measured section: a wall or latency key is the median of
/// this many runs.
inline constexpr int kRepeats = 5;

/// Calls `run` kRepeats times and records each key it samples as the median
/// over the runs; wall and latency keys also get `<key>_spread`, the
/// interquartile range over the median (quartiles taken as the
/// ⌊k/4⌋-th and ⌊3k/4⌋-th of the k sorted runs).
void Repeat(Results* out, const std::function<void(Sample*)>& run);

/// A named workload that appends its keys to a Results.
struct Probe {
  const char* name;
  bool gated;  // check_regression re-runs it
  void (*run)(Results*);
};

/// Every BENCH_core.json probe, in file order. The first ("host") records
/// the host fingerprint: hardware_concurrency, simd_level and build_type.
const std::vector<Probe>& Probes();

/// dcerd with its HTTP scrape listener: records "exposition_ok", true when
/// the METRICS verb and GET /metrics both return exposition text that
/// parses and carries the daemon's request histograms, and GET /healthz
/// answers ok. Gated only; micro_core does not record it.
void ExpositionSmoke(Results* out);

/// Product descriptions from the ecommerce generator: shared stopwords plus
/// rare sku/model tokens, the corpus of the kernel probes and sweeps.
std::vector<std::string> DescCorpus(size_t num_customers);

/// One row of a gate table.
struct Gate {
  /// A result key; "array[].field" gates `field` of every element.
  const char* key;
  Kind kind;
  /// Allowed relative growth over the baseline.
  double tolerance;
  /// Growth smaller than this, in the key's own unit, is noise.
  double floor;
  /// A wall key whose fresh/baseline ratio is the host's slowdown; a ratio
  /// that stays within tolerance once divided by it passes. nullptr: none.
  const char* normalizer;
};

/// The gates check_regression applies to the core probes.
const std::vector<Gate>& CoreGates();

/// Checks `fresh` against `baseline` (nullptr: no baseline file) and
/// appends one line per check to *report. Identity flags (boolean results)
/// must be true and are always checked. Numeric rows need a baseline;
/// wall and latency rows also need the baseline's host fingerprint to equal
/// the fresh one's, and are skipped with the reason otherwise. Returns
/// false if any check fails.
bool EvaluateGates(const std::vector<Gate>& gates, const JsonValue* baseline,
                   const Results& fresh, std::string* report);

}  // namespace dcer::bench

#endif  // DCER_BENCH_PROBES_H_
