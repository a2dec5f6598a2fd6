#include "bench/probes.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unordered_map>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "chase/deduce.h"
#include "chase/match.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/ecommerce.h"
#include "datagen/tpch_lite.h"
#include "ml/candidate_index.h"
#include "ml/embedding.h"
#include "ml/profile.h"
#include "ml/simd.h"
#include "ml/similarity.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/master.h"
#include "parallel/wire.h"
#include "relational/string_pool.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/resolver.h"

namespace dcer::bench {

// --- results and the repeat helper -----------------------------------------

void Results::Add(std::string key, Kind kind, JsonValue value) {
  entries_.push_back({std::move(key), kind, std::move(value)});
}
void Results::Count(std::string key, double v) {
  Add(std::move(key), Kind::kDeterministic, JsonValue::Number(v));
}
void Results::Check(std::string key, bool ok) {
  Add(std::move(key), Kind::kDeterministic, JsonValue::Bool(ok));
}
void Results::Info(std::string key, double v) {
  Add(std::move(key), Kind::kInfo, JsonValue::Number(v));
}
void Results::Info(std::string key, std::string text) {
  Add(std::move(key), Kind::kInfo, JsonValue::String(std::move(text)));
}

const JsonValue* Results::Find(std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return &e.value;
  }
  return nullptr;
}

double Results::Number(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : 0.0;
}

void Repeat(Results* out, const std::function<void(Sample*)>& run) {
  std::vector<Sample> samples(kRepeats);
  for (Sample& s : samples) run(&s);
  for (size_t i = 0; i < samples[0].values.size(); ++i) {
    const Sample::Value& first = samples[0].values[i];
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.values[i].v);
    std::sort(v.begin(), v.end());
    const double median = v[v.size() / 2];
    out->Add(first.key, first.kind, JsonValue::Number(median));
    if (first.kind == Kind::kWall || first.kind == Kind::kLatency) {
      const double iqr = v[v.size() * 3 / 4] - v[v.size() / 4];
      out->Info(first.key + "_spread", median > 0 ? iqr / median : 0.0);
    }
  }
}

namespace {

constexpr JsonValue::Type kArray = JsonValue::Type::kArray;
constexpr JsonValue::Type kObject = JsonValue::Type::kObject;
constexpr const char* kFingerprint[] = {"hardware_concurrency", "simd_level",
                                        "build_type"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Nanoseconds per call of f(i) over `calls` calls. The results feed a
// volatile sink so the loop cannot be optimized away.
volatile double g_sink = 0;
template <typename F>
double NsPerCall(int calls, F f) {
  double sum = 0;
  Timer t;
  for (int i = 0; i < calls; ++i) sum += static_cast<double>(f(i));
  const double ns = t.ElapsedSeconds() * 1e9 / calls;
  g_sink = sum;
  return ns;
}

// Ecommerce data replayed as a stream: `head` holds all but the last
// `held_back` generated tuples (the rules re-parsed against it), `tail` the
// rest in generation order.
struct Stream {
  std::unique_ptr<GenDataset> gd;
  Dataset head;
  RuleSet rules;
  std::vector<std::pair<uint32_t, Row>> tail;
};

Stream SplitEcommerce(size_t num_customers, size_t held_back) {
  Stream s;
  EcommerceOptions options;
  options.num_customers = num_customers;
  s.gd = MakeEcommerce(options);
  const Dataset& src = s.gd->dataset;
  for (size_t r = 0; r < src.num_relations(); ++r) {
    s.head.AddRelation(src.relation(r).schema());
  }
  Status st = ParseRuleSet(s.gd->rules.ToString(src), s.head, s.gd->registry,
                           &s.rules);
  if (!st.ok()) {
    std::fprintf(stderr, "ecommerce rules failed to re-parse: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  const size_t cut = src.num_tuples() - held_back;
  for (Gid g = 0; g < src.num_tuples(); ++g) {
    const TupleLoc loc = src.loc(g);
    Row row = src.relation(loc.relation).row(loc.row);
    if (g < cut) {
      s.head.AppendTuple(loc.relation, std::move(row));
    } else {
      s.tail.emplace_back(loc.relation, std::move(row));
    }
  }
  return s;
}

// --- probes ------------------------------------------------------------------

void HostProbe(Results* out) {
  out->Info("hardware_concurrency", std::thread::hardware_concurrency());
  out->Info("simd_level", simd::LevelName(simd::ActiveLevel()));
  out->Info("build_type", DCER_BUILD_TYPE);
  out->Info("pool_threads", ThreadPool::Global().num_threads());
}

// Sequential vs pooled DMatch, ecommerce num_customers=800 on 4 workers.
// Sequential runs the workers one after another with a single-threaded
// chase; pooled runs them as pool tasks, each splitting its join
// enumeration over threads=2. Γ must be bit-identical.
void DMatchProbe(Results* out) {
  constexpr int kWorkers = 4;
  constexpr int kThreads = 2;
  EcommerceOptions options;
  options.num_customers = 800;
  auto gd = MakeEcommerce(options);
  out->Info("workload", "ecommerce num_customers=800");
  out->Info("workers", kWorkers);
  out->Info("threads", kThreads);
  std::unique_ptr<MatchContext> seq_ctx;
  std::unique_ptr<MatchContext> pooled_ctx;
  DMatchReport pooled;
  Repeat(out, [&](Sample* s) {
    seq_ctx = std::make_unique<MatchContext>(gd->dataset);
    s->Add("dmatch_seq_wall_seconds", Kind::kWall,
           TimedDMatch(*gd, gd->rules, kWorkers, /*use_mqo=*/true,
                       seq_ctx.get())
               .er_seconds);
    pooled_ctx = std::make_unique<MatchContext>(gd->dataset);
    pooled = TimedDMatch(*gd, gd->rules, kWorkers, /*use_mqo=*/true,
                         pooled_ctx.get(), kThreads, /*run_parallel=*/true);
    s->Add("dmatch_pooled_wall_seconds", Kind::kWall, pooled.er_seconds);
    // The partial evaluation (superstep 0) and the incremental supersteps
    // are gated separately: a change can shift work between them.
    double incremental = 0;
    for (const SuperstepStats& st : pooled.superstep_stats) {
      if (st.step > 0) incremental += st.max_seconds;
    }
    s->Add("dmatch_partial_eval_seconds", Kind::kWall,
           pooled.superstep_stats.at(0).max_seconds);
    s->Add("dmatch_superstep_seconds", Kind::kWall, incremental);
    s->Add("dmatch_route_seconds", Kind::kWall, pooled.route_seconds);
  });
  out->Info("speedup", Ratio(out->Number("dmatch_seq_wall_seconds"),
                             out->Number("dmatch_pooled_wall_seconds")));
  // Per-step detail of the last pooled run; "bytes" is gated per step.
  JsonValue steps = JsonValue::Of(kArray);
  for (const SuperstepStats& st : pooled.superstep_stats) {
    JsonValue workers = JsonValue::Of(kArray);
    for (double t : st.worker_seconds) workers.Push(JsonValue::Number(t));
    JsonValue step = JsonValue::Of(kObject);
    step.Set("step", JsonValue::Number(st.step))
        .Set("max_seconds", JsonValue::Number(st.max_seconds))
        .Set("mean_seconds", JsonValue::Number(st.mean_seconds))
        .Set("skew", JsonValue::Number(st.skew))
        .Set("messages", JsonValue::Number(st.messages))
        .Set("bytes", JsonValue::Number(st.bytes))
        .Set("outbox_messages", JsonValue::Number(st.outbox_messages))
        .Set("outbox_bytes", JsonValue::Number(st.outbox_bytes))
        .Set("worker_seconds", std::move(workers));
    steps.Push(std::move(step));
  }
  out->Add("dmatch_supersteps", Kind::kInfo, std::move(steps));
  out->Count("dmatch_wire_messages", pooled.messages);
  out->Count("dmatch_wire_bytes", pooled.bytes);
  out->Count("dmatch_outbox_messages", pooled.outbox_messages);
  out->Count("dmatch_outbox_bytes", pooled.outbox_bytes);
  out->Check("pairs_equal",
             seq_ctx->MatchedPairs() == pooled_ctx->MatchedPairs() &&
                 seq_ctx->ValidatedMlKeys() == pooled_ctx->ValidatedMlKeys());
  out->Count("matched_pairs", seq_ctx->num_matched_pairs());
}

// The router alone on an exchange-heavy stream: 4 workers, every tuple
// hosted on up to two of them, each outbox 20k facts — mostly ML facts plus
// id facts confined to disjoint {2k, 2k+1} pairs, so the router is measured
// on volume, not on class growth. Serial vs pooled Dispatch of the same
// stream must deliver fact-identical inboxes. route_speedup_simulated
// (shard time sum over max) models one core per destination shard.
void RoutingProbe(Results* out) {
  constexpr int kWorkers = 4;
  constexpr uint32_t kTuples = 1 << 16;
  constexpr size_t kFactsPerWorker = 20'000;
  std::vector<std::vector<uint32_t>> hosts(kTuples);
  for (uint32_t g = 0; g < kTuples; ++g) {
    const uint32_t h1 = g % kWorkers;
    const uint32_t h2 = (g / kWorkers) % kWorkers;
    hosts[g] = h1 == h2 ? std::vector<uint32_t>{h1}
                        : std::vector<uint32_t>{std::min(h1, h2),
                                                std::max(h1, h2)};
  }
  std::vector<std::vector<Fact>> outboxes(kWorkers);
  Rng rng(13);
  for (int w = 0; w < kWorkers; ++w) {
    for (size_t i = 0; i < kFactsPerWorker; ++i) {
      if (i % 4 == 3) {
        const uint32_t a = static_cast<uint32_t>(rng.Uniform(kTuples / 2)) * 2;
        outboxes[w].push_back(Fact::IdMatch(a, a + 1));
      } else {
        const uint32_t a = static_cast<uint32_t>(rng.Uniform(kTuples));
        uint32_t b = static_cast<uint32_t>(rng.Uniform(kTuples));
        if (a == b) b = (b + 1) % kTuples;
        outboxes[w].push_back(Fact::MlValidated(
            static_cast<int32_t>(i % 3), a, rng.Next(), b, rng.Next()));
      }
    }
  }
  std::vector<std::vector<Fact>> inboxes[2];
  uint64_t messages = 0;
  uint64_t bytes = 0;
  Repeat(out, [&](Sample* s) {
    for (int pooled = 0; pooled < 2; ++pooled) {
      Master master(&hosts, kWorkers, kTuples,
                    pooled ? &ThreadPool::Global() : nullptr);
      for (int w = 0; w < kWorkers; ++w) master.Collect(w, outboxes[w]);
      Timer t;
      master.Dispatch(&inboxes[pooled]);
      s->Add(pooled ? "route_pooled_seconds" : "route_serial_seconds",
             Kind::kWall, t.ElapsedSeconds());
      if (pooled) {
        s->Add("route_speedup_simulated", Kind::kInfo,
               Ratio(master.route_shard_sum_seconds(),
                     master.route_shard_max_seconds()));
        messages = master.messages_routed();
        bytes = master.bytes_routed();
      }
    }
  });
  out->Info("route_speedup", Ratio(out->Number("route_serial_seconds"),
                                   out->Number("route_pooled_seconds")));
  out->Count("route_messages", messages);
  out->Count("route_bytes", bytes);
  bool equal = inboxes[0].size() == inboxes[1].size();
  for (size_t d = 0; equal && d < inboxes[0].size(); ++d) {
    equal = std::equal(inboxes[0][d].begin(), inboxes[0][d].end(),
                       inboxes[1][d].begin(), inboxes[1][d].end(),
                       wire::SameFact);
  }
  out->Check("route_inboxes_equal", equal);
}

// Equivalence propagation on a class-merge-heavy stream: chains build blocks
// of 16 equivalent tuples, then tournament rounds merge ever-larger blocks —
// where routing |Ca| + |Cb| spanning pairs stays linear.
void SpanningProbe(Results* out) {
  constexpr int kWorkers = 4;
  constexpr uint32_t kTuples = 1024;
  std::vector<std::vector<uint32_t>> hosts(kTuples);
  for (uint32_t g = 0; g < kTuples; ++g) hosts[g] = {g % kWorkers};
  std::vector<Fact> facts;
  for (uint32_t g = 0; g + 1 < kTuples; ++g) {
    if (g % 16 != 15) facts.push_back(Fact::IdMatch(g, g + 1));
  }
  for (uint32_t size = 16; size < kTuples; size *= 2) {
    for (uint32_t g = 0; g + size < kTuples; g += 2 * size) {
      facts.push_back(Fact::IdMatch(g, g + size));
    }
  }
  Master master(&hosts, kWorkers, kTuples);
  master.Collect(0, facts);
  std::vector<std::vector<Fact>> inboxes;
  master.Dispatch(&inboxes);
  out->Count("route_messages_spanning", master.messages_routed());
  out->Count("route_bytes_spanning", master.bytes_routed());
}

// One run of the tournament cascade under the cap=0 protocol: with
// dependency_capacity = 0 the full pass records nothing in H, the first
// `leaf_limit` leaf matches arrive as external facts, and IncDeduce must
// recover every internal valuation through seeded re-joins. The workload is
// rebuilt per run because the protocol consumes the engine.
struct Cascade {
  double seconds = 0;
  ChaseStats stats;  // of the IncDeduce call alone
  size_t leaves = 0;
  double task_seconds_sum = 0;  // serial-equivalent chunk time
  double round_max_sum = 0;     // per-round critical path, one core per chunk
  std::vector<std::pair<Gid, Gid>> pairs;
};

Cascade RunCascade(size_t leaf_limit, int threads) {
  Cascade out;
  auto w = MakeTournament(10, /*with_ml=*/false);
  DatasetView view = DatasetView::Full(w->dataset);
  MatchContext ctx(w->dataset);
  EngineOptions eo;
  eo.dependency_capacity = 0;
  eo.threads = threads;
  ChaseEngine engine(&view, &w->up_rules, &w->registry, &ctx,
                     ChaseEngine::FromEngineOptions(eo, &ThreadPool::Global()));
  Delta d0;
  engine.Deduce(&d0);  // finds nothing: the up rule needs child matches
  const std::vector<Fact> facts = TournamentLeafFacts(*w, leaf_limit);
  Delta seeds;
  engine.ApplyExternalFacts(facts, &seeds);
  const ChaseStats before = engine.stats();
  Timer t;
  Delta cascade;
  engine.IncDeduce(seeds, &cascade);
  out.seconds = t.ElapsedSeconds();
  out.stats = engine.stats();
  out.stats -= before;
  out.leaves = facts.size();
  out.task_seconds_sum = engine.inc_task_seconds_sum();
  out.round_max_sum = engine.inc_round_max_seconds_sum();
  out.pairs = ctx.MatchedPairs();
  return out;
}

// The delta-driven pass: full (1024) vs half (512) leaf set on pooled
// rounds (threads=2) — per-leaf cost should be flat in |Δ| — and the
// threads=1 per-item loop on the full set, whose Γ must be bit-identical.
void IncProbe(Results* out) {
  out->Info("inc_workload",
            "tournament levels=10, dependency_capacity=0, up-rule protocol "
            "(leaf matches as external facts)");
  Cascade full, half, seq;
  Repeat(out, [&](Sample* s) {
    full = RunCascade(size_t(-1), 2);
    half = RunCascade(512, 2);
    seq = RunCascade(size_t(-1), 1);
    s->Add("inc_full_seconds", Kind::kWall, full.seconds);
    s->Add("inc_half_seconds", Kind::kWall, half.seconds);
    // ~1.0 when the pass scales with |Δ|.
    s->Add("inc_delta_scaling_ratio", Kind::kWall,
           Ratio(full.seconds / full.leaves, half.seconds / half.leaves));
    s->Add("inc_seq_seconds", Kind::kWall, seq.seconds);
    s->Add("inc_task_seconds_sum", Kind::kWall, full.task_seconds_sum);
    s->Add("inc_round_max_seconds_sum", Kind::kWall, full.round_max_sum);
    s->Add("inc_speedup_simulated", Kind::kInfo,
           Ratio(full.task_seconds_sum, full.round_max_sum));
  });
  out->Count("inc_full_leaves", full.leaves);
  out->Count("inc_full_seeded_joins", full.stats.seeded_joins);
  out->Count("inc_full_rounds", full.stats.inc_rounds);
  out->Count("inc_full_frontier_items", full.stats.inc_frontier_items);
  out->Count("inc_full_dedup_hits", full.stats.inc_dedup_hits);
  out->Count("inc_full_matched_pairs", full.pairs.size());
  out->Count("inc_half_leaves", half.leaves);
  out->Count("inc_half_seeded_joins", half.stats.seeded_joins);
  out->Count("inc_half_rounds", half.stats.inc_rounds);
  out->Count("inc_half_matched_pairs", half.pairs.size());
  out->Info("inc_full_secs_per_leaf",
            Ratio(out->Number("inc_full_seconds"), full.leaves));
  out->Info("inc_half_secs_per_leaf",
            Ratio(out->Number("inc_half_seconds"), half.leaves));
  out->Count("inc_seq_seeded_joins", seq.stats.seeded_joins);
  out->Check("inc_pairs_equal", full.pairs == seq.pairs);
}

// Update stream: a Resolver absorbs the last 64 ecommerce tuples as 8-tuple
// Append batches — the maintenance cost the Sec. V-A Remark targets. The
// grown Γ must equal a from-scratch Match over the grown data.
void UpdateStreamProbe(Results* out) {
  constexpr size_t kBatchSize = 8;
  out->Info("update_stream_workload",
            "ecommerce num_customers=400, last 64 tuples replayed in batches "
            "of 8");
  Stream stream;
  std::unique_ptr<Resolver> resolver;  // reads stream.gd's registry
  JsonValue batch_seconds, batch_rounds, batch_seeded;
  Repeat(out, [&](Sample* s) {
    resolver.reset();
    stream = SplitEcommerce(400, 64);
    Timer init;
    resolver = Resolver::Open(std::move(stream.head), stream.rules,
                              &stream.gd->registry);
    s->Add("update_stream_init_seconds", Kind::kWall, init.ElapsedSeconds());
    batch_seconds = JsonValue::Of(kArray);
    batch_rounds = JsonValue::Of(kArray);
    batch_seeded = JsonValue::Of(kArray);
    double total = 0;
    double max = 0;
    for (size_t i = 0; i < stream.tail.size(); i += kBatchSize) {
      TupleBatch batch;
      for (size_t j = i; j < std::min(i + kBatchSize, stream.tail.size());
           ++j) {
        batch.Add(stream.tail[j].first, stream.tail[j].second);
      }
      Timer t;
      const AppendOutcome o = resolver->Append(std::move(batch));
      const double secs = t.ElapsedSeconds();
      total += secs;
      max = std::max(max, secs);
      batch_seconds.Push(JsonValue::Number(secs));
      batch_rounds.Push(JsonValue::Number(o.report.rounds));
      batch_seeded.Push(JsonValue::Number(o.report.chase.seeded_joins));
    }
    s->Add("update_stream_total_seconds", Kind::kWall, total);
    s->Add("update_stream_max_batch_seconds", Kind::kLatency, max);
    s->Add("update_stream_mean_batch_seconds", Kind::kLatency,
           total / static_cast<double>(batch_seconds.items.size()));
  });
  out->Count("update_stream_batches", batch_seconds.items.size());
  out->Add("update_stream_batch_seconds", Kind::kInfo, batch_seconds);
  out->Add("update_stream_batch_rounds", Kind::kDeterministic, batch_rounds);
  out->Add("update_stream_batch_seeded_joins", Kind::kDeterministic,
           batch_seeded);
  auto snapshot = resolver->Snapshot();
  out->Count("update_stream_matched_pairs", snapshot->num_matched_pairs());
  stream.gd->registry.ClearCache();
  MatchContext scratch(resolver->dataset());
  engine::Match(DatasetView::Full(resolver->dataset()), stream.rules,
                stream.gd->registry, {}, &scratch);
  out->Check("update_stream_equals_scratch",
             snapshot->MatchedPairs() == scratch.MatchedPairs() &&
                 snapshot->ValidatedMlKeys() == scratch.ValidatedMlKeys());
}

// dcerd end to end over loopback TCP: the update stream's tuples arrive as
// APPEND frames while a client fires 32 RESOLVE/SAME point queries after
// each ack, then 512 more. Query latency is client-observed round trip;
// visibility lag is the daemon's APPEND arrival → snapshot publish time.
void ServiceProbe(Results* out) {
  constexpr size_t kBatchSize = 8;
  out->Info("service_workload",
            "dcerd over loopback TCP: ecommerce num_customers=400, last 64 "
            "tuples in 8-tuple APPEND frames, 32 RESOLVE/SAME per batch + 512 "
            "trailing queries");
  bool ok = true;
  bool ack_implies_visible = true;
  uint64_t appends = 0;
  uint64_t queries = 0;
  uint64_t version = 0;
  uint64_t served_pairs = 0;
  Repeat(out, [&](Sample* s) {
    Stream stream = SplitEcommerce(400, 64);
    const size_t total = stream.head.num_tuples() + stream.tail.size();
    service::ResolverDaemon daemon(Resolver::Open(
        std::move(stream.head), stream.rules, &stream.gd->registry));
    service::ResolverClient client;
    ok = ok && daemon.Start().ok() && client.Connect(daemon.port()).ok();
    Rng rng(17);
    std::vector<double> latencies;
    uint64_t last_ack_version = 0;
    auto run_queries = [&](int count) {
      for (int q = 0; q < count && ok; ++q) {
        service::Response qr;
        const Gid a = static_cast<Gid>(rng.Uniform(total));
        Timer t;
        ok = (q % 2 == 0 ? client.Resolve(a, &qr)
                         : client.SameEntity(
                               a, static_cast<Gid>(rng.Uniform(total)), &qr))
                 .ok();
        latencies.push_back(t.ElapsedSeconds());
        // Every query after an ack sees a snapshot at least that new.
        if (qr.snapshot_version < last_ack_version) {
          ack_implies_visible = false;
        }
      }
    };
    appends = 0;
    for (size_t i = 0; i < stream.tail.size() && ok; i += kBatchSize) {
      // The request is built against the generator's dataset, which shares
      // the schemas; the daemon's copy is busy growing.
      std::vector<std::pair<uint32_t, Row>> rows(
          stream.tail.begin() + i,
          stream.tail.begin() + std::min(i + kBatchSize, stream.tail.size()));
      service::Response resp;
      ok = client.Append(stream.gd->dataset, rows, &resp).ok();
      ++appends;
      last_ack_version = resp.snapshot_version;
      run_queries(32);
    }
    run_queries(512);
    service::Response stats;
    ok = ok && client.Stats(&stats).ok();
    version = stats.snapshot_version;
    served_pairs = daemon.resolver().Snapshot()->num_matched_pairs();
    const service::DaemonStats ds = daemon.stats();
    client.Close();
    daemon.Stop();
    std::sort(latencies.begin(), latencies.end());
    queries = latencies.size();
    if (latencies.empty()) latencies.push_back(0);
    const size_t n = latencies.size();
    s->Add("served_query_p50", Kind::kLatency, latencies[n / 2]);
    s->Add("served_query_p99", Kind::kLatency,
           latencies[std::min(n - 1, n * 99 / 100)]);
    s->Add("served_query_max_seconds", Kind::kLatency, latencies.back());
    s->Add("update_visibility_lag", Kind::kLatency,
           Ratio(ds.total_visibility_lag_seconds,
                 static_cast<double>(ds.visibility_lag_samples)));
    s->Add("update_visibility_lag_max", Kind::kLatency,
           ds.max_visibility_lag_seconds);
  });
  out->Check("service_ok", ok);
  out->Count("service_appends", appends);
  out->Count("served_queries", queries);
  out->Count("service_snapshot_version", version);
  out->Count("service_matched_pairs", served_pairs);
  out->Check("service_ack_implies_visible", ack_implies_visible);
}

// Cost of the full production telemetry (metrics and trace spans) on the
// pooled DMatch run, measured interleaved — one off and one on run per
// repeat — so warm-up drift hits both sides equally. Collection cannot make
// a run faster, so obs_overhead_ratio is clamped at 1.0; the raw quotient
// is kept beside it as the noise indicator.
void ObsOverheadProbe(Results* out) {
  EcommerceOptions options;
  options.num_customers = 800;
  auto gd = MakeEcommerce(options);
  const bool metrics_were_enabled = obs::MetricsEnabled();
  const bool trace_was_enabled = obs::TraceEnabled();
  Repeat(out, [&](Sample* s) {
    double secs[2];
    for (int on = 0; on < 2; ++on) {
      obs::SetMetricsEnabled(on == 1);
      obs::SetTraceEnabled(on == 1);
      MatchContext ctx(gd->dataset);
      secs[on] = TimedDMatch(*gd, gd->rules, 4, /*use_mqo=*/true, &ctx,
                             /*threads=*/2, /*run_parallel=*/true)
                     .er_seconds;
      // Spans accumulate until flushed; drop them so the on side never
      // pays a growing buffer.
      if (on == 1) obs::ClearTrace();
    }
    s->Add("dmatch_nometrics_wall_seconds", Kind::kWall, secs[0]);
    s->Add("dmatch_metrics_wall_seconds", Kind::kWall, secs[1]);
    s->Add("obs_overhead_ratio_raw", Kind::kInfo, Ratio(secs[1], secs[0]));
  });
  obs::SetMetricsEnabled(metrics_were_enabled);
  obs::SetTraceEnabled(trace_was_enabled);
  out->Info("obs_overhead_ratio",
            std::max(out->Number("obs_overhead_ratio_raw"), 1.0));
}

// One-vs-many batch kernels over warm profiles at batch 256, against the
// pairwise token-Jaccard kernel on the same corpus and rotation, plus the
// cold profile build. Batch scores must equal the pairwise kernels'.
void BatchKernelProbe(Results* out) {
  constexpr size_t kBatch = 256;
  const std::vector<std::string> descs = DescCorpus(200);
  StringPool pool;
  std::vector<uint32_t> ids;
  for (const auto& s : descs) ids.push_back(pool.Intern(s));
  ProfileStore store(&pool);
  store.Sync();
  std::vector<uint32_t> cands(kBatch);
  for (size_t i = 0; i < kBatch; ++i) cands[i] = ids[(i * 7) % ids.size()];
  std::vector<double> scores(kBatch);
  std::vector<uint8_t> preds(kBatch);
  auto probe = [&](int i) { return ids[static_cast<size_t>(i) % ids.size()]; };
  Repeat(out, [&](Sample* s) {
    Timer t;
    ProfileStore cold(&pool);
    cold.Sync();
    s->Add("profiles_build_seconds", Kind::kWall, t.ElapsedSeconds());
    s->Add("token_jaccard_ns", Kind::kWall, NsPerCall(40'000, [&](int i) {
             return TokenJaccard(descs[i % descs.size()],
                                 descs[(i + 7) % descs.size()]);
           }));
    s->Add("token_jaccard_batch_ns", Kind::kWall,
           NsPerCall(2'000, [&](int i) {
             ScoreTokenJaccardBatch(store, probe(i), cands.data(), kBatch,
                                    scores.data());
             return scores[static_cast<size_t>(i) % kBatch];
           }) / kBatch);
    s->Add("ml_probe_batch_ns", Kind::kWall, NsPerCall(2'000, [&](int i) {
             PredictTokenJaccardBatch(store, probe(i), cands.data(), kBatch,
                                      0.5, preds.data());
             return preds[static_cast<size_t>(i) % kBatch];
           }) / kBatch);
    s->Add("edit_predict_batch_ns", Kind::kWall, NsPerCall(200, [&](int i) {
             PredictEditSimilarityBatch(store, probe(i), cands.data(), kBatch,
                                        0.75, preds.data());
             return preds[static_cast<size_t>(i) % kBatch];
           }) / kBatch);
  });
  out->Count("profiles_bytes", store.ByteSize());
  out->Info("token_jaccard_batch_speedup",
            Ratio(out->Number("token_jaccard_ns"),
                  out->Number("token_jaccard_batch_ns")));
  bool equal = true;
  std::vector<uint8_t> edit(kBatch);
  for (size_t p = 0; p < 8 && equal; ++p) {
    const uint32_t probe_id = ids[p * 13 % ids.size()];
    ScoreTokenJaccardBatch(store, probe_id, cands.data(), kBatch,
                           scores.data());
    PredictTokenJaccardBatch(store, probe_id, cands.data(), kBatch, 0.5,
                             preds.data());
    PredictEditSimilarityBatch(store, probe_id, cands.data(), kBatch, 0.75,
                               edit.data());
    for (size_t i = 0; i < kBatch && equal; ++i) {
      const std::string_view a = pool.view(probe_id);
      const std::string_view b = pool.view(cands[i]);
      const double ref = TokenJaccard(a, b);
      equal = scores[i] == ref && (preds[i] != 0) == (ref >= 0.5) &&
              (edit[i] != 0) == (EditSimilarity(a, b) >= 0.75);
    }
  }
  out->Check("batch_scores_equal", equal);
}

// Pairwise kernel and cache latencies, recorded so a regression shows
// without re-parsing google-benchmark output.
void KernelProbe(Results* out) {
  const std::vector<std::string> descs = DescCorpus(200);
  PredictionCache cache;
  Rng rng(11);
  std::vector<uint64_t> keys(1024);
  for (auto& k : keys) {
    k = rng.Next();
    cache.Insert(k, (k & 2) != 0);
  }
  const std::string a = "katherine-rodriguez lopez";
  const std::string b = "katheryn rodriguez-lopezz";
  const Embedding ea = EmbedText(descs[0]);
  const Embedding eb = EmbedText(descs[1]);
  std::vector<uint32_t> rows(descs.size());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
  auto fill = [&](uint32_t row, std::vector<Value>* v) {
    v->clear();
    v->emplace_back(descs[row]);
  };
  TokenJaccardIndex index(0.5, rows, fill);
  std::vector<Value> query;
  std::vector<uint32_t> found;
  Repeat(out, [&](Sample* s) {
    s->Add("ml_cache_hit_ns", Kind::kWall, NsPerCall(400'000, [&](int i) {
             return cache.Lookup(keys[i & 1023]);
           }));
    s->Add("edit_distance_bounded_ns", Kind::kWall,
           NsPerCall(40'000, [&](int) { return EditDistance(a, b, 4); }));
    s->Add("edit_similarity_ns", Kind::kWall,
           NsPerCall(40'000, [&](int) { return EditSimilarity(a, b); }));
    s->Add("cosine_ns", Kind::kWall,
           NsPerCall(40'000, [&](int) { return Cosine(ea, eb); }));
    s->Add("ml_index_probe_ns", Kind::kWall, NsPerCall(10'000, [&](int i) {
             fill(static_cast<uint32_t>(i) % rows.size(), &query);
             index.Probe(query, &found);
             return found.size();
           }));
  });
}

// ML-predicate-dominated Match: two rules whose only join constraint is an
// ML predicate, so without candidate indices the chase post-filters the
// full cross product. MJ's jaccard 0.5 on Products.desc is selective (rare
// sku/model tokens); ME's edit 0.75 on Customers.name gets a real q-gram
// count bound. Γ must not depend on the indices.
void MlWorkloadProbe(Results* out) {
  EcommerceOptions options;
  options.num_customers = 300;
  auto gd = MakeEcommerce(options);
  gd->registry.Register(std::make_unique<TokenJaccardClassifier>("MJ", 0.5));
  gd->registry.Register(std::make_unique<EditSimilarityClassifier>("ME", 0.75));
  RuleSet rules;
  if (!ParseRuleSet("rj: Products(tp) ^ Products(tp2) ^ MJ(tp.desc, tp2.desc) "
                    "-> tp.id = tp2.id\n"
                    "re: Customers(tc) ^ Customers(tc2) ^ ME(tc.name, "
                    "tc2.name) -> tc.id = tc2.id\n",
                    gd->dataset, gd->registry, &rules)
           .ok()) {
    std::abort();
  }
  out->Info("ml_workload",
            "ml-only rules (jaccard 0.5 on Products.desc, edit 0.75 on "
            "Customers.name), ecommerce num_customers=300");
  const DatasetView view = DatasetView::Full(gd->dataset);
  std::unique_ptr<MatchContext> ctx[2];
  uint64_t indices_built = 0;
  Repeat(out, [&](Sample* s) {
    for (int on = 0; on < 2; ++on) {
      gd->registry.ClearCache();
      ctx[on] = std::make_unique<MatchContext>(gd->dataset);
      MatchOptions mo;
      mo.ml_index = on == 1;
      Timer t;
      const MatchReport r =
          engine::Match(view, rules, gd->registry, mo, ctx[on].get());
      s->Add(on ? "ml_workload_on_seconds" : "ml_workload_off_seconds",
             Kind::kWall, t.ElapsedSeconds());
      if (on) indices_built = r.chase.ml_indices_built;
    }
  });
  out->Info("ml_index_speedup", Ratio(out->Number("ml_workload_off_seconds"),
                                      out->Number("ml_workload_on_seconds")));
  out->Check("ml_workload_pairs_equal",
             ctx[0]->MatchedPairs() == ctx[1]->MatchedPairs() &&
                 ctx[0]->ValidatedMlKeys() == ctx[1]->ValidatedMlKeys());
  out->Count("ml_workload_matched_pairs", ctx[1]->num_matched_pairs());
  out->Count("ml_indices_built", indices_built);
}

// Columnar storage on TPC-H dbgen-lite SF 1: generation, the equality-index
// build on Orders.custkey keyed by interned codes (the DatasetIndex path),
// and the interning pool's hit rate and footprint (deterministic for the
// fixed generator seed). Absolute times are per-core numbers.
void ColumnarProbe(Results* out) {
  out->Info("columnar_workload",
            "tpch scale_factor=1 (dbgen-lite row counts, ~45k tuples)");
  std::unique_ptr<GenDataset> gd;
  size_t keys = 0;
  Repeat(out, [&](Sample* s) {
    TpchOptions options;
    options.scale_factor = 1.0;
    Timer gen;
    gd = MakeTpch(options);
    s->Add("tpch_sf1_gen_seconds", Kind::kWall, gen.ElapsedSeconds());
    const Relation* orders = nullptr;
    for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
      const Relation& rel = gd->dataset.relation(r);
      if (rel.schema().name() == "Orders") orders = &rel;
    }
    constexpr size_t kCustAttr = 1;
    constexpr int kBuilds = 20;
    std::unordered_map<uint64_t, std::vector<uint32_t>, CodeHash> index;
    Timer t;
    for (int rep = 0; rep < kBuilds; ++rep) {
      index.clear();
      for (size_t i = 0; i < orders->num_rows(); ++i) {
        if (!orders->is_null(i, kCustAttr)) {
          index[orders->code_at(i, kCustAttr)].push_back(
              static_cast<uint32_t>(i));
        }
      }
    }
    s->Add("index_build_columnar_seconds", Kind::kWall,
           t.ElapsedSeconds() / kBuilds);
    keys = index.size();
  });
  const Dataset& d = gd->dataset;
  uint64_t grow_events = 0;
  for (size_t r = 0; r < d.num_relations(); ++r) {
    grow_events += d.relation(r).grow_events();
  }
  const StringPool& pool = d.pool();
  out->Count("tpch_sf1_tuples", d.num_tuples());
  out->Count("datagen_grow_events", grow_events);
  out->Count("index_build_keys", keys);
  out->Count("intern_hit_rate", Ratio(pool.num_hits(), pool.num_requests()));
  out->Count("intern_requests", pool.num_requests());
  out->Count("intern_strings", pool.size());
  out->Count("intern_arena_bytes", pool.arena_bytes());
  out->Count("intern_requested_bytes", pool.requested_bytes());
  out->Count("intern_footprint_ratio",
             Ratio(pool.arena_bytes(), pool.requested_bytes()));
}

// One raw HTTP/1.0 GET against 127.0.0.1:port: the full response, or "" on
// a socket error. Deliberately not the ResolverClient: the scrape path must
// work for a stock Prometheus agent that speaks only HTTP.
std::string HttpGet(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string out;
  const std::string req = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(req.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

// "" when `text` parses as exposition and carries the daemon's request
// histograms, else what is wrong with it.
std::string ExpositionProblem(const std::string& text) {
  const obs::ExpositionParse parsed = obs::ParseExposition(text);
  if (!parsed.ok()) return "does not parse: " + parsed.error;
  for (const char* family : {"dcerd_queue_wait_seconds", "dcerd_exec_seconds",
                             "dcerd_publish_lag_seconds"}) {
    if (!parsed.HasFamily(family)) return std::string("lacks ") + family;
  }
  return "";
}

}  // namespace

void ExpositionSmoke(Results* out) {
  Stream stream = SplitEcommerce(60, 8);
  service::DaemonOptions options;
  options.metrics_port = 0;  // ephemeral HTTP scrape listener
  service::ResolverDaemon daemon(
      Resolver::Open(std::move(stream.head), stream.rules,
                     &stream.gd->registry),
      options);
  std::string problem;
  service::ResolverClient client;
  service::Response resp;
  if (!daemon.Start().ok() || !client.Connect(daemon.port()).ok() ||
      !client.Append(stream.gd->dataset, stream.tail, &resp).ok() ||
      !client.Resolve(0, &resp).ok() || !client.Metrics(&resp).ok()) {
    problem = "daemon, APPEND or METRICS verb failed";
  } else if (problem = ExpositionProblem(resp.text); !problem.empty()) {
    problem = "METRICS verb text " + problem;
  } else {
    const std::string http = HttpGet(daemon.metrics_port(), "/metrics");
    const size_t body = http.find("\r\n\r\n");
    const std::string health = HttpGet(daemon.metrics_port(), "/healthz");
    if (http.compare(0, 12, "HTTP/1.0 200") != 0 ||
        body == std::string::npos) {
      problem = "GET /metrics did not return 200";
    } else if (problem = ExpositionProblem(http.substr(body + 4));
               !problem.empty()) {
      problem = "GET /metrics body " + problem;
    } else if (health.compare(0, 12, "HTTP/1.0 200") != 0 ||
               health.find("ok") == std::string::npos) {
      problem = "GET /healthz not ok";
    }
  }
  client.Close();
  daemon.Stop();
  if (!problem.empty()) std::printf("exposition smoke: %s\n", problem.c_str());
  out->Check("exposition_ok", problem.empty());
}

std::vector<std::string> DescCorpus(size_t num_customers) {
  EcommerceOptions options;
  options.num_customers = num_customers;
  auto gd = MakeEcommerce(options);
  const Relation& products = gd->dataset.relation(2);  // Products
  std::vector<std::string> descs;
  for (size_t r = 0; r < products.num_rows(); ++r) {
    descs.emplace_back(products.at(r, 3).AsString());  // desc
  }
  return descs;
}

const std::vector<Probe>& Probes() {
  static const std::vector<Probe> probes = {
      {"host", true, HostProbe},
      {"dmatch", true, DMatchProbe},
      {"routing", false, RoutingProbe},
      {"spanning", false, SpanningProbe},
      {"inc_cascade", true, IncProbe},
      {"update_stream", false, UpdateStreamProbe},
      {"service", true, ServiceProbe},
      {"obs_overhead", false, ObsOverheadProbe},
      {"kernels", false, KernelProbe},
      {"batch_kernels", true, BatchKernelProbe},
      {"ml_workload", false, MlWorkloadProbe},
      {"columnar", true, ColumnarProbe},
  };
  return probes;
}

// --- gates -------------------------------------------------------------------

const std::vector<Gate>& CoreGates() {
  // Noise floors: scheduler jitter on chase phases, builds and append lag
  // (10 ms), on per-pair kernel costs (50 ns) and on loopback query round
  // trips (2 ms).
  constexpr double kPhase = 0.010;
  constexpr double kKernelNs = 50;
  constexpr double kQuery = 0.002;
  // Host slowdown is read off the sequential DMatch wall, which shares no
  // code path with the pooled executor's scheduling.
  constexpr const char* kSeq = "dmatch_seq_wall_seconds";
  constexpr Kind kDet = Kind::kDeterministic;
  static const std::vector<Gate> gates = {
      {"pairs_equal", kDet, 0, 0, nullptr},
      {"inc_pairs_equal", kDet, 0, 0, nullptr},
      {"batch_scores_equal", kDet, 0, 0, nullptr},
      {"service_ok", kDet, 0, 0, nullptr},
      {"service_ack_implies_visible", kDet, 0, 0, nullptr},
      {"exposition_ok", kDet, 0, 0, nullptr},
      {"dmatch_wire_bytes", kDet, 0.25, 0, nullptr},
      {"dmatch_supersteps[].bytes", kDet, 0.25, 0, nullptr},
      {"intern_arena_bytes", kDet, 0.25, 0, nullptr},
      {"dmatch_pooled_wall_seconds", Kind::kWall, 0.25, 0, kSeq},
      {"dmatch_partial_eval_seconds", Kind::kWall, 0.25, kPhase, kSeq},
      {"dmatch_superstep_seconds", Kind::kWall, 0.25, kPhase, kSeq},
      {"inc_full_seconds", Kind::kWall, 0.25, kPhase, kSeq},
      {"inc_delta_scaling_ratio", Kind::kWall, 0.25, 0.25, nullptr},
      {"index_build_columnar_seconds", Kind::kWall, 0.25, kPhase, kSeq},
      {"token_jaccard_batch_ns", Kind::kWall, 0.25, kKernelNs, kSeq},
      {"ml_probe_batch_ns", Kind::kWall, 0.25, kKernelNs, kSeq},
      {"served_query_p99", Kind::kLatency, 0.25, kQuery, kSeq},
      {"update_visibility_lag", Kind::kLatency, 0.25, kPhase, kSeq},
  };
  return gates;
}

namespace {

__attribute__((format(printf, 2, 3))) void Appendf(std::string* out,
                                                   const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// `v` itself for a plain key, else `field` of every element of array `v`;
// anything but a number reads 0. Empty when `v` is absent.
std::vector<double> Numbers(const JsonValue* v, std::string_view field) {
  auto number = [](const JsonValue* x) {
    return x != nullptr && x->type == JsonValue::Type::kNumber ? x->number
                                                               : 0.0;
  };
  if (v == nullptr) return {};
  if (field.empty()) return {number(v)};
  std::vector<double> out;
  for (const JsonValue& item : v->items) {
    out.push_back(number(item.Find(field)));
  }
  return out;
}

std::string Render(const JsonValue* v) {
  if (v == nullptr) return "absent";
  JsonWriter w;
  w.Value(*v);
  return w.str();
}

}  // namespace

bool EvaluateGates(const std::vector<Gate>& gates, const JsonValue* baseline,
                   const Results& fresh, std::string* report) {
  bool same_host = baseline != nullptr;
  for (size_t i = 0; baseline != nullptr && i < std::size(kFingerprint); ++i) {
    const char* key = kFingerprint[i];
    const std::string base = Render(baseline->Find(key));
    const std::string now = Render(fresh.Find(key));
    if (base != now) {
      Appendf(report, "host fingerprint differs: %s baseline=%s fresh=%s\n",
              key, base.c_str(), now.c_str());
      same_host = false;
    }
  }
  if (baseline == nullptr) {
    Appendf(report, "no baseline: only identity gates run\n");
  } else if (!same_host) {
    Appendf(report, "wall and latency gates skipped: their baseline was "
                    "recorded on a different host\n");
  }
  bool ok = true;
  for (const Gate& g : gates) {
    const std::string_view key = g.key;
    const size_t split = key.find("[].");
    const std::string name(key.substr(0, split));
    const std::string_view field =
        split == std::string_view::npos ? "" : key.substr(split + 3);
    const JsonValue* now = fresh.Find(name);
    if (now != nullptr && now->type == JsonValue::Type::kBool) {
      Appendf(report, "%s: %s\n", g.key, now->boolean ? "true" : "FAIL");
      ok = ok && now->boolean;
      continue;
    }
    const std::vector<double> fresh_v = Numbers(now, field);
    if (fresh_v.empty()) {
      Appendf(report, "FAIL: %s: the fresh run did not record it\n", g.key);
      ok = false;
      continue;
    }
    const bool timed = g.kind == Kind::kWall || g.kind == Kind::kLatency;
    if (baseline == nullptr || (timed && !same_host)) continue;
    const std::vector<double> base_v = Numbers(baseline->Find(name), field);
    if (base_v.empty()) {
      Appendf(report, "%s: not in the baseline; skipped\n", g.key);
      continue;
    }
    double host = 0;
    if (g.normalizer != nullptr) {
      const std::vector<double> nb = Numbers(baseline->Find(g.normalizer), "");
      host = nb.empty() ? 0 : Ratio(fresh.Number(g.normalizer), nb[0]);
    }
    for (size_t i = 0; i < base_v.size() && i < fresh_v.size(); ++i) {
      std::string label = g.key;
      if (!field.empty()) label = name + "[" + std::to_string(i) + "]." +
                                  std::string(field);
      const double f = fresh_v[i];
      const double b = base_v[i];
      if (b <= 0) continue;
      const double ratio = f / b;
      Appendf(report, "%s: fresh=%.6g baseline=%.6g ratio=%.3f\n",
              label.c_str(), f, b, ratio);
      if (ratio <= 1 + g.tolerance) continue;
      if (f - b < g.floor) {
        Appendf(report, "  pass: +%.6g is under the %.6g noise floor\n",
                f - b, g.floor);
      } else if (host > 0 && ratio / host <= 1 + g.tolerance) {
        Appendf(report, "  pass: %s moved %.3fx too; normalized ratio %.3f\n",
                g.normalizer, host, ratio / host);
      } else {
        Appendf(report, "FAIL: %s grew %.1f%% over the baseline\n",
                label.c_str(), (ratio - 1) * 100);
        ok = false;
      }
    }
  }
  Appendf(report, "%s\n", ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace dcer::bench
