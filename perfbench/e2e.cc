// End-to-end phases: repeated Resolver::Open (sequential and DMatch) and
// dcerd serve sessions over loopback, each checked against the sequential
// fixpoint.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "service/client.h"
#include "service/daemon.h"

namespace perfbench {

using namespace dcer;

namespace {

constexpr double kQueriesPerSecond = 2000;
constexpr auto kSpin = std::chrono::microseconds(200);
constexpr size_t kMinCycles = 3;

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Reports the median over sessions of each session's q-quantile, so one
// session caught in a stall of the host moves the figure no more than any
// other. A session with fewer than ten samples beyond its quantile fails the
// run when `enforce_floor` is set, and is only noted otherwise.
void SessionPercentile(const std::string& name,
                       const std::vector<std::vector<double>>& sessions,
                       double q, const std::string& unit, bool enforce_floor,
                       Report* report) {
  std::vector<double> values;
  size_t min_samples = SIZE_MAX, min_beyond = SIZE_MAX;
  for (const auto& samples : sessions) {
    const Percentile p = PercentileOf(samples, q);
    values.push_back(p.value);
    min_samples = std::min(min_samples, p.samples);
    min_beyond = std::min(min_beyond, p.beyond);
  }
  if (min_beyond < 10) {
    const std::string msg =
        name + ": a session has fewer than ten samples beyond the percentile";
    if (enforce_floor) {
      report->Fail(msg);
    } else {
      std::printf("note: %s\n", msg.c_str());
    }
  }
  report->Metric(name, Median(values), unit,
                 "(median of " + std::to_string(values.size()) +
                     " sessions; each >= " + std::to_string(min_samples) +
                     " samples, >= " + std::to_string(min_beyond) +
                     " beyond)");
}

}  // namespace

double TimedOpen(const Inputs& inputs, int num_workers, Gamma* gamma) {
  Dataset dataset = inputs.Copy(inputs.full.num_tuples());
  RuleSet rules = inputs.Parse(dataset);
  inputs.registry->ClearCache();
  ResolverOptions options;
  options.num_workers = num_workers;
  std::unique_ptr<Resolver> resolver;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(num_workers == 0 ? "resolver.Open.sequential"
                                     : "resolver.Open.dmatch");
    resolver = Resolver::Open(std::move(dataset), std::move(rules),
                              inputs.registry, options);
  }
  const double seconds = SecondsSince(t0);
  if (gamma != nullptr) *gamma = GammaOf(*resolver->Snapshot());
  return seconds;
}

Gamma ReferenceGamma(const RunConfig& cfg, const Inputs& inputs,
                     Report* report) {
  Gamma ref;
  TimedOpen(inputs, 0, &ref);
  const WorkloadSpec& spec = *cfg.spec;
  if (!cfg.smoke) {
    report->Check(ref.pairs.size() == spec.pinned_pairs,
                  "sequential open found " + std::to_string(ref.pairs.size()) +
                      " pairs, pinned " + std::to_string(spec.pinned_pairs));
  }
  return ref;
}

ServeSample RunServeSession(const RunConfig& cfg, const Gamma& reference,
                            bool scrape_metrics, Report* report) {
  ServeSample out;
  ScopedSpan session_span("serve.session");
  const auto t0 = Clock::now();
  std::unique_ptr<Inputs> in;
  std::unique_ptr<service::ResolverDaemon> daemon;
  {
    ScopedSpan span("serve.setup");
    in = Inputs::Make(*cfg.spec, cfg.seed, cfg.smoke);
    Dataset prefix = in->Copy(in->prefix);
    RuleSet rules = in->Parse(prefix);
    daemon = std::make_unique<service::ResolverDaemon>(
        Resolver::Open(std::move(prefix), std::move(rules), in->registry));
    Status st = daemon->Start();
    report->Check(st.ok(), "dcerd start: " + st.ToString());
    if (!st.ok()) return out;
  }
  out.setup_s = SecondsSince(t0);

  const auto frames = in->Frames();
  service::ResolverClient appender, querier;
  {
    Status a = appender.Connect(daemon->port());
    Status q = querier.Connect(daemon->port());
    report->Check(a.ok() && q.ok(), "dcerd connect failed");
    if (!a.ok() || !q.ok()) return out;
  }
  service::Response resp;
  if (scrape_metrics) {
    report->Check(querier.Metrics(&resp).ok(), "METRICS before the stream");
    out.metrics_before = resp.text;
  }

  // Open-loop query generator: one RESOLVE or SAME every 1/rate seconds on
  // a uniform gid of what has been acked so far, timed from its due time.
  std::atomic<uint64_t> acked_version{0};
  std::atomic<size_t> known_gids{in->prefix};
  uint64_t query_failures = 0;
  std::string first_query_failure;
  const auto stream_start = Clock::now();
  std::jthread query_thread([&](std::stop_token stop) {
    ScopedSpan span("serve.query_generator");
    Rng rng(cfg.seed * 31 + 7);
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kQueriesPerSecond));
    service::Response qr;
    for (uint64_t k = 0; !stop.stop_requested(); ++k) {
      const auto due = stream_start + interval * static_cast<int64_t>(k);
      if (Clock::now() < due) {
        // Sleep to just before the due time, then spin: a timer wake-up
        // alone can be tens of microseconds late on a virtual machine.
        std::this_thread::sleep_until(due - kSpin);
        while (Clock::now() < due) {
        }
        const double late_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        out.generator_late_ms_max =
            std::max(out.generator_late_ms_max, late_ms);
      }
      const uint64_t min_version = acked_version.load();
      const size_t n = known_gids.load();
      const Gid a = static_cast<Gid>(rng.Uniform(n));
      const Gid b = static_cast<Gid>(rng.Uniform(n));
      Status st = k % 2 == 0 ? querier.Resolve(a, &qr)
                             : querier.SameEntity(a, b, &qr);
      out.query_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due)
              .count());
      std::string problem;
      if (!st.ok()) {
        problem = "query failed: " + st.ToString();
      } else if (qr.snapshot_version < min_version) {
        problem = "query after ack saw snapshot " +
                  std::to_string(qr.snapshot_version) + " < acked " +
                  std::to_string(min_version);
      } else if (k % 2 == 0 &&
                 std::find(qr.gids.begin(), qr.gids.end(), a) ==
                     qr.gids.end()) {
        problem = "RESOLVE reply misses the queried gid";
      }
      if (!problem.empty() && query_failures++ == 0) {
        first_query_failure = problem;
      }
    }
  });

  // Closed-loop appender: one 8-tuple APPEND at a time, waiting for its ack.
  Gid next_gid = static_cast<Gid>(in->prefix);
  for (const auto& frame : frames) {
    ScopedSpan span("serve.append");
    const auto t = Clock::now();
    Status st = appender.Append(in->full, frame, &resp);
    out.append_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t).count());
    report->Attempt();
    if (!st.ok()) {
      report->Fail("APPEND failed: " + st.ToString());
      break;
    }
    bool gids_ok = resp.gids.size() == frame.size();
    for (size_t i = 0; gids_ok && i < frame.size(); ++i) {
      gids_ok = resp.gids[i] == next_gid + i;
    }
    if (!gids_ok) report->Fail("APPEND assigned unexpected gids");
    next_gid += static_cast<Gid>(frame.size());
    out.tuples += frame.size();
    acked_version.store(resp.snapshot_version);
    known_gids.store(next_gid);
  }
  out.stream_s = SecondsSince(stream_start);
  query_thread.request_stop();
  query_thread.join();
  report->Attempt(out.query_us.size());
  if (query_failures > 0) {
    report->Fail(std::to_string(query_failures) +
                 " queries failed; first: " + first_query_failure);
  }

  if (scrape_metrics) {
    report->Check(querier.Metrics(&resp).ok(), "METRICS after the stream");
    out.metrics_after = resp.text;
  }
  report->Check(GammaOf(*daemon->resolver().Snapshot()) == reference,
                "final dcerd snapshot differs from a from-scratch open of "
                "the grown dataset");
  const service::DaemonStats stats = daemon->stats();
  out.drains_per_append =
      stats.append_requests == 0
          ? 0
          : static_cast<double>(stats.append_batches) /
                static_cast<double>(stats.append_requests);
  appender.Close();
  querier.Close();
  daemon->Stop();
  return out;
}

void RunEndToEnd(const RunConfig& cfg, Report* report) {
  auto inputs = Inputs::Make(*cfg.spec, cfg.seed, cfg.smoke);
  std::printf("inputs: %zu tuples, %zu opened, %zu appended\n",
              inputs->full.num_tuples(), inputs->prefix,
              inputs->full.num_tuples() - inputs->prefix);
  const Gamma ref = ReferenceGamma(cfg, *inputs, report);
  std::printf("reference: %zu matched pairs, %zu validated ML facts\n",
              ref.pairs.size(), ref.ml_keys.size());
  // Warm-up: the first DMatch open of a process starts the thread pool.
  {
    Gamma g;
    TimedOpen(*inputs, kDMatchWorkers, &g);
    report->Check(g == ref, "DMatch open differs from sequential");
  }

  // Measured cycles of sequential and DMatch opens and one serve session, so
  // that a slow spell of the host hits every metric alike and the medians
  // ride over it. A cycle starts only if it is expected to end in time.
  const auto start = Clock::now();
  std::vector<double> seq, dmatch, setup, rates, query_us;
  std::vector<std::vector<double>> append_ms;
  double late_max = 0;
  size_t cycles = 0;
  while (cycles < kMinCycles ||
         SecondsSince(start) * (cycles + 1) / cycles <= cfg.seconds) {
    for (int workers : {0, kDMatchWorkers, 0, kDMatchWorkers}) {
      Gamma g;
      (workers == 0 ? seq : dmatch).push_back(
          TimedOpen(*inputs, workers, &g));
      report->Check(g == ref, workers == 0
                                  ? "sequential open is not deterministic"
                                  : "DMatch open differs from sequential");
    }
    ServeSample s = RunServeSession(cfg, ref, false, report);
    setup.push_back(s.setup_s);
    append_ms.push_back(s.append_ms);
    query_us.insert(query_us.end(), s.query_us.begin(), s.query_us.end());
    if (s.stream_s > 0) rates.push_back(s.tuples / s.stream_s);
    late_max = std::max(late_max, s.generator_late_ms_max);
    ++cycles;
    if (report->failed() > 0) break;
  }
  std::printf("measured %zu cycles in %.2f s\n", cycles, SecondsSince(start));
  std::printf("open-loop generator ran at most %.3f ms late\n", late_max);
  // Query latency is printed but not a bounded metric. On a 4-core x86 VM
  // its median moved by up to a quarter between runs, with wake-ups of the
  // virtual CPUs. Its tail followed stalls in which the generator itself
  // woke milliseconds late.
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const Percentile p = PercentileOf(query_us, q);
    std::printf("query latency p%g %.1f us (samples=%zu, beyond=%zu)\n",
                q * 100, p.value, p.samples, p.beyond);
  }

  const bool floor = !cfg.smoke;
  report->Metric("open_seq_s", Median(seq), "s",
                 "(median of " + std::to_string(seq.size()) + ")");
  report->Metric("open_dmatch_s", Median(dmatch), "s",
                 "(median of " + std::to_string(dmatch.size()) + ")");
  SessionPercentile("append_p50_ms", append_ms, 0.5, "ms", floor, report);
  SessionPercentile("append_p90_ms", append_ms, 0.9, "ms", floor, report);
  report->Metric("append_tuples_per_s", Median(rates), "tuples/s",
                 "(median of " + std::to_string(rates.size()) + ")");
  report->Metric("setup_s", Median(setup), "s",
                 "(median of " + std::to_string(setup.size()) + ")");
  report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
}

}  // namespace perfbench
