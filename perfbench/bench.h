#ifndef DCER_PERFBENCH_BENCH_H_
#define DCER_PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: workload specs and their
// generated inputs, sample statistics, the metric sink that prints the
// result line, and the benchmark's own span recorder.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "chase/fact.h"
#include "chase/gamma_snapshot.h"
#include "chase/match_context.h"
#include "datagen/gen_dataset.h"
#include "ml/registry.h"
#include "relational/dataset.h"
#include "rules/rule.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------------

enum class Family { kEcommerce, kEcommerceMl, kTournament };

struct WorkloadSpec {
  const char* name;
  Family family;
  int full_size;   // customers (ecommerce) or bracket levels (tournament)
  int smoke_size;
  // Share of the tuples held back from Open and streamed through APPEND.
  double held_back;
  // Matched pairs of the full-size fixpoint.
  uint64_t pinned_pairs;
};

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Seed of the ecommerce generator. The data is the same for every run, so
// that runs with different seeds do the same work; --seed varies which tuples
// are streamed, their order and the queries.
constexpr uint64_t kDataSeed = 42;
// Tuples per APPEND frame of the serve stream.
constexpr size_t kFrameTuples = 8;
// Workers of every DMatch run.
constexpr int kDMatchWorkers = 4;

// One workload's generated inputs. `full` holds every tuple in final gid
// order: the first `prefix` tuples are what a serve session opens on, the
// rest arrive through APPEND in that order. Every Open of `full` therefore
// assigns the same gids as a serve session that has appended the whole tail,
// which is what lets the two be compared pair for pair.
struct Inputs {
  std::unique_ptr<dcer::GenDataset> ecommerce;
  std::unique_ptr<dcer::TournamentWorkload> tournament;
  dcer::MlRegistry* registry = nullptr;
  std::string rules_text;
  dcer::Dataset full;
  size_t prefix = 0;

  static std::unique_ptr<Inputs> Make(const WorkloadSpec& spec, uint64_t seed,
                                      bool smoke);

  // A fresh dataset holding the first `n` tuples of `full`.
  dcer::Dataset Copy(size_t n) const;
  // The workload's rules, parsed against `dataset` (aborts on a parse error:
  // the rule text comes from the generators and always parses).
  dcer::RuleSet Parse(const dcer::Dataset& dataset) const;
  // The held-back tail as APPEND frames of up to kFrameTuples tuples each.
  std::vector<std::vector<std::pair<uint32_t, dcer::Row>>> Frames() const;
};

// Γ of one fixpoint, for bit-for-bit comparison between strategies.
struct Gamma {
  std::vector<std::pair<dcer::Gid, dcer::Gid>> pairs;
  std::vector<uint64_t> ml_keys;
  bool operator==(const Gamma&) const = default;
};
Gamma GammaOf(const dcer::GammaSnapshot& snapshot);
Gamma GammaOf(const dcer::MatchContext& context);

// --- Statistics --------------------------------------------------------------

double Median(std::vector<double> v);

// Nearest-rank percentile with the number of samples strictly above it.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Percentile PercentileOf(std::vector<double> v, double q);

// --- Result ------------------------------------------------------------------

// Collects metrics and the operation/failure tally of one run, and prints
// them: one human-readable line per metric, then the JSON result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  // Records a failed operation or check with a one-line reason.
  void Fail(const std::string& what);
  // Counts one attempted check, failing it unless `ok`.
  void Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail(what);
  }

  uint64_t failed() const { return failed_; }
  void Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- Spans -------------------------------------------------------------------

// In-memory span log of the traced run: name, start, end and parent of every
// span opened through ScopedSpan while enabled. Written once, at exit.
class SpanLog {
 public:
  static SpanLog& Get();
  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }
  int Begin(const char* name);
  void End(int id);
  // Writes {"fingerprint": <header_json>, "spans": [...]} to `path`;
  // returns false on an I/O error.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };
  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
  int prev_ = -1;
};

// --- Phases ------------------------------------------------------------------

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
};

// One serve session: open the prefix in an in-process dcerd, stream the tail
// through APPEND while an open-loop client queries, then check the final
// snapshot against `reference`.
struct ServeSample {
  double setup_s = 0;
  double stream_s = 0;
  size_t tuples = 0;
  std::vector<double> append_ms;  // per APPEND, send -> APPENDED
  std::vector<double> query_us;   // per query, due time -> reply
  double generator_late_ms_max = 0;
  double drains_per_append = 0;
  std::string metrics_before, metrics_after;  // METRICS scrapes
};
ServeSample RunServeSession(const RunConfig& cfg, const Gamma& reference,
                            bool scrape_metrics, Report* report);

// Opens `inputs.full` through Resolver::Open (num_workers 0 = sequential) on
// a cleared prediction cache; returns the wall time of Open alone.
double TimedOpen(const Inputs& inputs, int num_workers, Gamma* gamma);

// The reference fixpoint every strategy must reproduce, with the pin check.
Gamma ReferenceGamma(const RunConfig& cfg, const Inputs& inputs,
                     Report* report);

void RunEndToEnd(const RunConfig& cfg, Report* report);
void RunLayers(const RunConfig& cfg, Report* report);

}  // namespace perfbench

#endif  // DCER_PERFBENCH_BENCH_H_
