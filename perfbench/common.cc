#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "common/rng.h"
#include "datagen/ecommerce.h"
#include "ml/classifier.h"
#include "rules/parser.h"

namespace perfbench {

using namespace dcer;

// --- Workloads ---------------------------------------------------------------

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"ecommerce", Family::kEcommerce, 2000, 200, 0.5, 1179},
      {"ml-ecommerce", Family::kEcommerceMl, 2000, 200, 0.25, 64861},
      {"cascade-tournament", Family::kTournament, 12, 6, 0.25, 8191},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

// The two ML-only rules of the ML-dominated workload: token Jaccard on
// product descriptions, edit similarity on customer names. Neither has an id
// precondition, so the dependency store records nothing.
constexpr char kMlRules[] =
    "rj: Products(tp) ^ Products(tp2) ^ MJ(tp.desc, tp2.desc) "
    "-> tp.id = tp2.id\n"
    "re: Customers(tc) ^ Customers(tc2) ^ ME(tc.name, tc2.name) "
    "-> tc.id = tc2.id\n";

}  // namespace

std::unique_ptr<Inputs> Inputs::Make(const WorkloadSpec& spec, uint64_t seed,
                                     bool smoke) {
  auto in = std::make_unique<Inputs>();
  const int size = smoke ? spec.smoke_size : spec.full_size;
  const Dataset* src = nullptr;
  if (spec.family == Family::kTournament) {
    in->tournament = MakeTournament(size, /*with_ml=*/true);
    if (in->tournament == nullptr) std::abort();
    in->registry = &in->tournament->registry;
    in->rules_text = in->tournament->rules.ToString(in->tournament->dataset);
    src = &in->tournament->dataset;
  } else {
    EcommerceOptions options;
    options.num_customers = static_cast<size_t>(size);
    options.seed = kDataSeed;
    in->ecommerce = MakeEcommerce(options);
    in->registry = &in->ecommerce->registry;
    src = &in->ecommerce->dataset;
    if (spec.family == Family::kEcommerceMl) {
      in->registry->Register(
          std::make_unique<TokenJaccardClassifier>("MJ", 0.5));
      in->registry->Register(
          std::make_unique<EditSimilarityClassifier>("ME", 0.75));
      in->rules_text = kMlRules;
    } else {
      in->rules_text = in->ecommerce->rules.ToString(*src);
    }
  }

  // The seed picks which tuples are held back and their arrival order; the
  // tuples themselves are the same for every seed.
  const size_t n = src->num_tuples();
  const size_t tail = static_cast<size_t>(std::lround(n * spec.held_back));
  std::vector<Gid> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<Gid>(i);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  }
  const auto cut = perm.begin() + static_cast<std::ptrdiff_t>(tail);
  std::vector<Gid> order(cut, perm.end());
  std::sort(order.begin(), order.end());
  // An APPEND frame carries one tuple block per relation, in relation order,
  // and the daemon assigns gids block by block; order each frame the same
  // way so the in-process opens assign the gids the daemon will.
  for (auto it = perm.begin(); it < cut; it += kFrameTuples) {
    std::stable_sort(it, std::min(it + kFrameTuples, cut), [&](Gid a, Gid b) {
      return src->loc(a).relation < src->loc(b).relation;
    });
  }
  order.insert(order.end(), perm.begin(), cut);

  for (size_t r = 0; r < src->num_relations(); ++r) {
    in->full.AddRelation(src->relation(r).schema());
  }
  for (Gid g : order) {
    TupleLoc loc = src->loc(g);
    in->full.AppendTuple(loc.relation,
                         src->relation(loc.relation).row(loc.row));
  }
  in->prefix = n - tail;
  return in;
}

Dataset Inputs::Copy(size_t n) const {
  Dataset d;
  for (size_t r = 0; r < full.num_relations(); ++r) {
    d.AddRelation(full.relation(r).schema());
  }
  for (Gid g = 0; g < n; ++g) {
    TupleLoc loc = full.loc(g);
    d.AppendTuple(loc.relation, full.relation(loc.relation).row(loc.row));
  }
  return d;
}

RuleSet Inputs::Parse(const Dataset& dataset) const {
  RuleSet rules;
  Status st = ParseRuleSet(rules_text, dataset, *registry, &rules);
  if (!st.ok()) {
    std::fprintf(stderr, "rules failed to parse: %s\n",
                 std::string(st.message()).c_str());
    std::abort();
  }
  return rules;
}

std::vector<std::vector<std::pair<uint32_t, Row>>> Inputs::Frames() const {
  std::vector<std::vector<std::pair<uint32_t, Row>>> out;
  for (Gid g = static_cast<Gid>(prefix); g < full.num_tuples(); ++g) {
    if (out.empty() || out.back().size() == kFrameTuples) out.emplace_back();
    TupleLoc loc = full.loc(g);
    out.back().emplace_back(loc.relation,
                            full.relation(loc.relation).row(loc.row));
  }
  return out;
}

Gamma GammaOf(const GammaSnapshot& snapshot) {
  return {snapshot.MatchedPairs(), snapshot.ValidatedMlKeys()};
}

Gamma GammaOf(const MatchContext& context) {
  return {context.MatchedPairs(), context.ValidatedMlKeys()};
}

// --- Statistics --------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile PercentileOf(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

// --- Result ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = {value, unit};
  std::printf("metric %-36s %14.6f %-8s %s\n", name.c_str(), value,
              unit.c_str(), note.c_str());
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::printf("FAILED: %s\n", what.c_str());
}

void Report::Print() const {
  const uint64_t attempted = std::max<uint64_t>(attempted_, 1);
  std::printf("attempted %llu failed %llu error_rate %.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed_),
              static_cast<double>(failed_) / static_cast<double>(attempted));
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", e.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Spans -------------------------------------------------------------------

namespace {
thread_local int tl_current_span = -1;
}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

int SpanLog::Begin(const char* name) {
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, tl_current_span});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

bool SpanLog::Write(const std::string& path,
                    const std::string& header_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"fingerprint\": %s,\n \"spans\": [", header_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start_us, s.end_us,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  id_ = log.Begin(name);
  prev_ = tl_current_span;
  tl_current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  SpanLog::Get().End(id_);
  tl_current_span = prev_;
}

}  // namespace perfbench
