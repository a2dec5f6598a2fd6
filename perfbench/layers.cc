// The traced run: the public entry point of each module (partition,
// parallel, chase, ml, relational, service) called and timed from here, on
// the workload's own inputs, with a span around every call. Counts come from
// the modules' public counters; nothing is read from inside the program.

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.h"
#include "chase/deduce.h"
#include "chase/inverted_index.h"
#include "chase/join.h"
#include "common/thread_pool.h"
#include "ml/profile.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/dmatch.h"
#include "parallel/wire.h"
#include "partition/hypart.h"
#include "service/protocol.h"
#include "service/resolver.h"

namespace perfbench {

using namespace dcer;

namespace {

constexpr int kReps = 3;
// Micro-timed loops (codecs, kernels) repeat until at least this long.
constexpr double kLoopSeconds = 0.05;

template <class F>
double MedianTime(const char* span, F&& f) {
  std::vector<double> times;
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan s(span);
    const auto t0 = Clock::now();
    f();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

// Repeats `f` (one pass over `items` units of work) for at least
// kLoopSeconds; returns nanoseconds per unit.
template <class F>
double NsPerItem(const char* span, size_t items, F&& f) {
  if (items == 0) return 0;
  ScopedSpan s(span);
  size_t passes = 0;
  const auto t0 = Clock::now();
  do {
    f();
    ++passes;
  } while (SecondsSince(t0) < kLoopSeconds);
  return SecondsSince(t0) * 1e9 / static_cast<double>(passes * items);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The (relation, attribute) columns the rules' equality and constant
// predicates touch: every equality index a chase over them builds.
std::vector<std::pair<size_t, size_t>> EqualityColumns(const RuleSet& rules) {
  std::set<std::pair<size_t, size_t>> cols;
  for (const Rule& rule : rules.rules()) {
    for (const Predicate& p : rule.preconditions()) {
      if (p.kind == PredicateKind::kAttrEq) {
        cols.insert({static_cast<size_t>(rule.var_relation(p.rhs.var)),
                     static_cast<size_t>(p.rhs.attr)});
      }
      if (p.kind == PredicateKind::kAttrEq ||
          p.kind == PredicateKind::kConstEq) {
        cols.insert({static_cast<size_t>(rule.var_relation(p.lhs.var)),
                     static_cast<size_t>(p.lhs.attr)});
      }
    }
  }
  return {cols.begin(), cols.end()};
}

// Distinct interned ids of a string column.
std::vector<uint32_t> ColumnStringIds(const Relation& rel, size_t attr) {
  std::set<uint32_t> ids;
  for (size_t row = 0; row < rel.num_rows(); ++row) {
    if (!rel.is_null(row, attr)) {
      ids.insert(static_cast<uint32_t>(rel.code_at(row, attr)));
    }
  }
  return {ids.begin(), ids.end()};
}

// Evenly spaced sample of at most `n` elements.
std::vector<uint32_t> Sample(const std::vector<uint32_t>& v, size_t n) {
  if (v.size() <= n) return v;
  std::vector<uint32_t> out;
  for (size_t i = 0; i < n; ++i) out.push_back(v[i * v.size() / n]);
  return out;
}

// Batch ML kernels on the rules' single-string-attribute ML predicates:
// each probe string against the other side's distinct strings.
double BatchNsPerPair(const Dataset& ds, const RuleSet& rules,
                      const MlRegistry& registry, const ProfileStore& store) {
  double seconds = 0;
  size_t pairs = 0;
  std::vector<uint8_t> preds;
  for (const Rule& rule : rules.rules()) {
    std::vector<Predicate> ml = rule.preconditions();
    ml.push_back(rule.consequence());
    for (const Predicate& p : ml) {
      if (p.kind != PredicateKind::kMl || p.lhs_ml_attrs.size() != 1 ||
          p.rhs_ml_attrs.size() != 1) {
        continue;
      }
      const MlClassifier& c = registry.classifier(p.ml_id);
      const MlBatchKernel kernel = c.batch_kernel();
      const Relation& lrel = ds.relation(rule.var_relation(p.lhs.var));
      const Relation& rrel = ds.relation(rule.var_relation(p.rhs.var));
      const size_t la = p.lhs_ml_attrs[0], ra = p.rhs_ml_attrs[0];
      if (kernel == MlBatchKernel::kNone ||
          lrel.column(la).type() != ValueType::kString ||
          rrel.column(ra).type() != ValueType::kString) {
        continue;
      }
      const auto probes = Sample(ColumnStringIds(lrel, la), 64);
      const auto cands = Sample(ColumnStringIds(rrel, ra), 2048);
      preds.resize(cands.size());
      const auto t0 = Clock::now();
      for (uint32_t probe : probes) {
        if (kernel == MlBatchKernel::kTokenJaccard) {
          PredictTokenJaccardBatch(store, probe, cands.data(), cands.size(),
                                   c.threshold(), preds.data());
        } else {
          PredictEditSimilarityBatch(store, probe, cands.data(), cands.size(),
                                     c.threshold(), preds.data());
        }
      }
      seconds += SecondsSince(t0);
      pairs += probes.size() * cands.size();
    }
  }
  return Ratio(seconds * 1e9, static_cast<double>(pairs));
}

// The samples a dcerd histogram gained between two METRICS scrapes. The
// exposition lists cumulative counts of the power-of-two buckets up to the
// highest populated one, then +Inf; this undoes that.
obs::HistogramSnapshot ScrapedDelta(const obs::ExpositionParse& before,
                                    const obs::ExpositionParse& after,
                                    const std::string& family) {
  auto per_bucket = [&](const obs::ExpositionParse& scrape) {
    std::vector<uint64_t> counts(obs::Histogram::kBuckets, 0);
    const std::vector<double> cum = scrape.BucketCounts(family);
    double prev = 0;
    for (size_t b = 0; b + 1 < cum.size() && b < counts.size(); ++b) {
      counts[b] = static_cast<uint64_t>(cum[b] - prev);
      prev = cum[b];
    }
    return counts;
  };
  const std::vector<uint64_t> a = per_bucket(after), b = per_bucket(before);
  obs::HistogramSnapshot delta;
  delta.unit = obs::Histogram::Unit::kNanos;
  delta.buckets.resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    delta.buckets[i] = a[i] - b[i];
    delta.count += delta.buckets[i];
  }
  return delta;
}

}  // namespace

void RunLayers(const RunConfig& cfg, Report* report) {
  ScopedSpan run_span("run");
  auto in = Inputs::Make(*cfg.spec, cfg.seed, cfg.smoke);
  const Dataset ds = in->Copy(in->full.num_tuples());
  const RuleSet rules = in->Parse(ds);
  MlRegistry& registry = *in->registry;
  const Gamma ref = ReferenceGamma(cfg, *in, report);

  {
    ScopedSpan span("relational");
    report->Metric("relational.intern_arena_bytes",
                   static_cast<double>(ds.pool().arena_bytes()), "bytes");
    report->Metric("relational.interned_strings",
                   static_cast<double>(ds.pool().size()), "count");
  }

  {
    ScopedSpan span("partition");
    HyPartOptions options;
    options.num_workers = kDMatchWorkers;
    Partition part;
    const double s = MedianTime("partition.HyPart", [&] {
      part = HyPart(ds, rules, options);
    });
    report->Metric("partition.hypart_s", s, "s");
    report->Metric("partition.replication_factor",
                   part.stats.replication_factor, "ratio");
    report->Metric("partition.skew", part.stats.skew, "ratio");
    report->Metric("partition.hash_computations",
                   static_cast<double>(part.stats.hash_computations), "count");
  }

  {
    ScopedSpan span("parallel");
    DMatchOptions options;
    options.num_workers = kDMatchWorkers;
    DMatchReport last;
    std::vector<double> partial_eval, skew0, route;
    const double s = MedianTime("parallel.DMatch", [&] {
      registry.ClearCache();
      MatchContext ctx(ds);
      last = engine::DMatch(ds, rules, registry, options, &ctx);
      report->Check(GammaOf(ctx) == ref, "engine::DMatch differs from the "
                                         "sequential open");
      if (!last.superstep_stats.empty()) {
        partial_eval.push_back(last.superstep_stats[0].max_seconds);
        skew0.push_back(last.superstep_stats[0].skew);
      }
      route.push_back(last.route_seconds);
    });
    report->Metric("parallel.dmatch_s", s, "s");
    report->Metric("parallel.partial_eval_max_s", Median(partial_eval), "s");
    report->Metric("parallel.superstep0_skew", Median(skew0), "ratio");
    report->Metric("parallel.supersteps", last.supersteps, "count");
    report->Metric("parallel.messages", static_cast<double>(last.messages),
                   "count");
    report->Metric("parallel.wire_bytes",
                   static_cast<double>(last.bytes + last.outbox_bytes),
                   "bytes");
    report->Metric("parallel.route_s", Median(route), "s");

    // The wire codec on Γ's id facts, the bulk of what DMatch routes.
    std::vector<Fact> facts;
    for (const auto& [a, b] : ref.pairs) facts.push_back(Fact::IdMatch(a, b));
    std::vector<uint8_t> bytes;
    std::vector<Fact> decoded;
    wire::EncodeFactBatch(facts, &bytes);
    report->Check(
        wire::DecodeFactBatch(bytes, &decoded) == wire::WireError::kOk &&
            decoded.size() == facts.size(),
        "fact batch does not round-trip");
    report->Metric("parallel.wire_encode_ns_per_fact",
                   NsPerItem("parallel.EncodeFactBatch", facts.size(),
                             [&] { wire::EncodeFactBatch(facts, &bytes); }),
                   "ns");
    report->Metric("parallel.wire_decode_ns_per_fact",
                   NsPerItem("parallel.DecodeFactBatch", facts.size(),
                             [&] { wire::DecodeFactBatch(bytes, &decoded); }),
                   "ns");
  }

  const DatasetView view = DatasetView::Full(ds);
  const auto eq_cols = EqualityColumns(rules);
  {
    ScopedSpan span("ml");
    std::unique_ptr<ProfileStore> store;
    const double sync_s = MedianTime("ml.ProfileStore.Sync", [&] {
      store = std::make_unique<ProfileStore>(&ds.pool());
      store->Sync();
    });
    report->Metric("ml.profile_sync_s", sync_s, "s");
    report->Metric("ml.profile_bytes", static_cast<double>(store->ByteSize()),
                   "bytes");
    {
      ScopedSpan kernels("ml.batch_kernels");
      report->Metric("ml.batch_ns_per_pair",
                     BatchNsPerPair(ds, rules, registry, *store), "ns");
    }
  }

  // Index builds and join enumeration, each on a fresh index over the full
  // view, exactly as a sequential chase sets them up (shared index, profiles
  // attached, ML candidate generation on).
  {
    ScopedSpan span("chase.join");
    MlIndexPolicy policy;
    policy.enabled = true;
    policy.derivable = std::make_shared<const std::unordered_set<uint64_t>>(
        DerivableMlKeys(rules));
    std::vector<double> index_s, ml_index_s, enumerate_s;
    uint64_t valuations = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      DatasetIndex index(&view);
      index.AttachProfiles(std::make_shared<ProfileStore>(&ds.pool()));
      MatchContext empty(ds);
      std::vector<std::unique_ptr<RuleJoiner>> joiners;
      for (const Rule& rule : rules.rules()) {
        joiners.push_back(
            std::make_unique<RuleJoiner>(&index, &rule, &registry, &empty));
        joiners.back()->ConfigureMlIndex(policy);
      }
      {
        ScopedSpan s("chase.DatasetIndex.EnsureBuilt");
        const auto t0 = Clock::now();
        for (const auto& [rel, attr] : eq_cols) index.EnsureBuilt(rel, attr);
        index_s.push_back(SecondsSince(t0));
      }
      {
        // With the equality indices built, prewarming builds exactly the ML
        // candidate indices (DatasetIndex::EnsureMlBuilt per prunable side).
        ScopedSpan s("ml.EnsureMlBuilt");
        const auto t0 = Clock::now();
        for (auto& j : joiners) j->PrewarmIndexes();
        ml_index_s.push_back(SecondsSince(t0));
      }
      registry.ClearCache();
      valuations = 0;
      {
        ScopedSpan s("chase.RuleJoiner.Enumerate");
        const auto t0 = Clock::now();
        for (auto& j : joiners) {
          j->Enumerate([&](const std::vector<uint32_t>&,
                           const std::vector<int>&) {
            ++valuations;
            return true;
          });
        }
        enumerate_s.push_back(SecondsSince(t0));
      }
    }
    report->Metric("chase.index_build_s", Median(index_s), "s");
    report->Metric("ml.cand_index_build_s", Median(ml_index_s), "s");
    report->Metric("chase.join_enumerate_s", Median(enumerate_s), "s");
    report->Metric("chase.join_valuations", static_cast<double>(valuations),
                   "count");
  }

  // The sequential fixpoint as Resolver::Open runs it: Deduce, then
  // IncDeduce to the fixpoint.
  {
    ScopedSpan span("chase.fixpoint");
    std::vector<double> deduce_s, inc_s, snapshot_s;
    ChaseStats stats;
    for (int rep = 0; rep < kReps; ++rep) {
      registry.ClearCache();
      MatchContext ctx(ds);
      ChaseEngine engine(&view, &rules, &registry, &ctx,
                         ChaseEngine::FromEngineOptions(
                             EngineOptions{}, &ThreadPool::Global()));
      Delta delta, rest;
      {
        ScopedSpan s("chase.ChaseEngine.Deduce");
        const auto t0 = Clock::now();
        engine.Deduce(&delta);
        deduce_s.push_back(SecondsSince(t0));
      }
      {
        ScopedSpan s("chase.ChaseEngine.IncDeduce");
        const auto t0 = Clock::now();
        engine.IncDeduce(delta, &rest);
        inc_s.push_back(SecondsSince(t0));
      }
      {
        ScopedSpan s("chase.MatchContext.MakeSnapshot");
        const auto t0 = Clock::now();
        auto snap = ctx.MakeSnapshot(1);
        snapshot_s.push_back(SecondsSince(t0));
      }
      report->Check(GammaOf(ctx) == ref,
                    "Deduce + IncDeduce differs from the sequential open");
      stats = engine.stats();
    }
    report->Metric("chase.deduce_s", Median(deduce_s), "s");
    report->Metric("chase.inc_deduce_s", Median(inc_s), "s");
    report->Metric("chase.snapshot_s", Median(snapshot_s), "s");
    report->Metric("chase.deps_added", static_cast<double>(stats.deps_added),
                   "count");
    report->Metric("chase.deps_fired", static_cast<double>(stats.deps_fired),
                   "count");
    report->Metric("chase.deps_fired_ratio",
                   Ratio(static_cast<double>(stats.deps_fired),
                         static_cast<double>(stats.deps_added)),
                   "ratio");
    report->Metric("chase.seeded_joins",
                   static_cast<double>(stats.seeded_joins), "count");
    report->Metric("chase.inc_rounds", static_cast<double>(stats.inc_rounds),
                   "count");
    report->Metric("ml.probes", static_cast<double>(stats.ml_probes), "count");
    report->Metric("ml.probe_candidates",
                   static_cast<double>(stats.ml_probe_candidates), "count");
    report->Metric("ml.pairs_per_candidate",
                   Ratio(static_cast<double>(ref.pairs.size()),
                         static_cast<double>(stats.ml_probe_candidates)),
                   "ratio");
  }

  // Resolver::Append in-process, replaying the serve stream.
  {
    ScopedSpan span("chase.append");
    Dataset prefix = in->Copy(in->prefix);
    RuleSet prefix_rules = in->Parse(prefix);
    registry.ClearCache();
    auto resolver =
        Resolver::Open(std::move(prefix), std::move(prefix_rules), &registry);
    std::vector<double> ms;
    for (const auto& frame : in->Frames()) {
      TupleBatch batch;
      for (const auto& [rel, row] : frame) batch.Add(rel, row);
      ScopedSpan s("chase.Resolver.Append");
      const auto t0 = Clock::now();
      resolver->Append(std::move(batch));
      ms.push_back(SecondsSince(t0) * 1e3);
    }
    report->Check(GammaOf(*resolver->Snapshot()) == ref,
                  "in-process appends differ from the sequential open");
    report->Metric("chase.append_ms_p50", Median(ms), "ms");
  }

  // ML prediction counts and the trace's own cost: sequential opens
  // alternating with the program's tracing and this run's spans off and on.
  {
    ScopedSpan span("ml.predictions");
    std::vector<double> off, on;
    uint64_t predictions = 0, hits = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      SpanLog::Get().Enable(false);
      registry.ResetStats();
      off.push_back(TimedOpen(*in, 0, nullptr));
      predictions = registry.num_predictions();
      hits = registry.num_cache_hits();
      SpanLog::Get().Enable(true);
      obs::SetTraceEnabled(true);
      on.push_back(TimedOpen(*in, 0, nullptr));
      obs::SetTraceEnabled(false);
      obs::ClearTrace();
    }
    report->Metric("ml.predictions", static_cast<double>(predictions),
                   "count");
    report->Metric("ml.cache_hits", static_cast<double>(hits), "count");
    report->Metric("ml.cache_hit_ratio",
                   Ratio(static_cast<double>(hits),
                         static_cast<double>(hits + predictions)),
                   "ratio");
    report->Metric("obs.trace_overhead_ratio", Ratio(Median(on), Median(off)),
                   "ratio");
  }

  {
    ScopedSpan span("service");
    // Request codec on the serve stream's APPEND frames.
    std::vector<service::Request> requests;
    for (const auto& frame : in->Frames()) {
      requests.push_back(service::MakeAppendRequest(in->full, frame));
    }
    std::vector<uint8_t> bytes;
    service::Request decoded;
    TupleBatch batch;
    bool codec_ok = true;
    const double codec_ns = NsPerItem("service.codec", requests.size(), [&] {
      for (const service::Request& req : requests) {
        service::EncodeRequest(req, &bytes);
        codec_ok &= service::DecodeRequest(bytes, &decoded) ==
                    wire::WireError::kOk;
        batch = TupleBatch{};
        codec_ok &= service::DecodeAppendBlocks(decoded, in->full, &batch) ==
                    wire::WireError::kOk;
      }
    });
    report->Check(codec_ok, "APPEND request codec failed");
    report->Metric("service.codec_ns_per_append", codec_ns, "ns");

    ServeSample s = RunServeSession(cfg, ref, /*scrape_metrics=*/true, report);
    const obs::ExpositionParse before = obs::ParseExposition(s.metrics_before);
    const obs::ExpositionParse after = obs::ParseExposition(s.metrics_after);
    report->Check(before.ok() && after.ok(), "METRICS reply does not parse");
    auto quantile_ms = [&](const char* family, double q) {
      return ScrapedDelta(before, after, family).Quantile(q) / 1e6;
    };
    report->Metric("service.queue_wait_ms_p50",
                   quantile_ms("dcerd_queue_wait_seconds", 0.5), "ms");
    report->Metric("service.exec_ms_p50",
                   quantile_ms("dcerd_exec_seconds", 0.5), "ms");
    report->Metric("service.exec_ms_p90",
                   quantile_ms("dcerd_exec_seconds", 0.9), "ms");
    report->Metric("service.publish_lag_ms_p50",
                   quantile_ms("dcerd_publish_lag_seconds", 0.5), "ms");
    report->Metric("service.query_server_us_p50",
                   quantile_ms("dcerd_query_seconds", 0.5) * 1e3, "us");
    report->Metric("service.drains_per_append", s.drains_per_append, "ratio");
    report->Metric("service.generator_late_ms_max", s.generator_late_ms_max,
                   "ms");
  }
}

}  // namespace perfbench
