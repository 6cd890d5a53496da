// Experiment E11: the long-lived AuctionService under three lenses.
//
// E11a (throughput): a fixed stream of requests (distinct scenarios from
// the deterministic scenario pool, load::ScenarioPool, each recurring
// after a cache-warming first rotation) is pushed through service
// configurations of increasing concurrency; the series reports sustained
// requests/sec and the cache hit rate. The welfare column doubles as a
// cross-configuration invariant: results must not depend on the
// shard/worker layout.
//
// E11b (deadline mix): a burst of distinct requests with alternating tight
// and loose time budgets through one worker, once under the FIFO baseline
// and once under deadline ordering (QueuePolicy). Deadlines met are scored
// server-side (queue wait + solve wall time vs budget). Deadline ordering
// must meet strictly more deadlines than FIFO on the same stream, and a
// shard-layout sweep of the same stream must keep total welfare invariant
// (scheduling changes latency, never payloads). Budgets are calibrated
// from a measured solve so the bench is machine-independent: tight = 30x
// one solve (FIFO misses the tail of the tight requests, deadline ordering
// meets them all), loose = 1000x.
//
// E11c (restart): the throughput stream with a service kill/restart in the
// middle, persisting the result caches through a snapshot file. The
// combined hit rate across the restart must stay within 5 points of the
// uninterrupted run (warm-cache resume), and welfare must match exactly.
//
// Concurrency is configurable: SSA_BENCH_SHARDS (comma-separated shard
// counts, default "1,2,4,8") and SSA_BENCH_WORKERS (workers per shard,
// default 1).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bench_util.hpp"
#include "gen/scenario.hpp"
#include "load/workload.hpp"
#include "service/service.hpp"

namespace {

using namespace ssa;

std::vector<int> shard_counts_from_env() {
  const char* env = std::getenv("SSA_BENCH_SHARDS");
  if (env == nullptr) return {1, 2, 4, 8};
  std::vector<int> counts;
  std::string token;
  for (const char* p = env;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) counts.push_back(std::max(1, std::atoi(token.c_str())));
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return counts.empty() ? std::vector<int>{1, 2, 4, 8} : counts;
}

int workers_from_env() {
  const char* env = std::getenv("SSA_BENCH_WORKERS");
  return env == nullptr ? 1 : std::max(1, std::atoi(env));
}

/// The benchmark workload: 20 distinct scenarios from the deterministic
/// scenario pool (load::ScenarioPool cycles the five generator families
/// per derived seed).
std::vector<gen::NamedInstance> make_scenarios() {
  load::TraceSpec spec;
  spec.seed = 4200;
  spec.pool_size = 20;
  spec.bidders = 12;
  spec.channels = 2;
  load::ScenarioPool pool(spec);
  std::vector<gen::NamedInstance> scenarios;
  scenarios.reserve(pool.size());
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(pool.size());
       ++s) {
    scenarios.push_back(pool.instance(s));
  }
  return scenarios;
}

struct StreamOutcome {
  double seconds = 0.0;
  double welfare = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t requests = 0;
};

/// Streams rotations of the scenario set through one service
/// configuration: first rotation computes (cache warmup), later rotations
/// replay. Claims every report and accumulates welfare.
StreamOutcome drive_stream(const std::vector<gen::NamedInstance>& scenarios,
                           int shards, int workers, int rotations,
                           std::uint32_t span_sample_every = 1) {
  service::ServiceOptions config;
  config.shards = shards;
  config.threads_per_shard = workers;
  config.span_sample_every = span_sample_every;
  service::AuctionService service(config);

  SolveOptions options;
  options.pipeline.rounding_repetitions = 12;

  StreamOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  std::vector<service::RequestId> ids;
  ids.reserve(scenarios.size() * static_cast<std::size_t>(rotations));
  for (int rotation = 0; rotation < rotations; ++rotation) {
    for (const gen::NamedInstance& scenario : scenarios) {
      ids.push_back(
          service.submit(scenario.view(), service::kAutoSolver, options));
    }
    if (rotation == 0) service.drain();  // warm the caches once
  }
  for (const service::RequestId id : ids) {
    outcome.welfare += service.get(id).welfare;
  }
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const service::ServiceStats stats = service.stats();
  outcome.cache_hits = stats.cache_hits;
  outcome.requests = stats.submitted;
  return outcome;
}

void throughput_table() {
  const std::vector<gen::NamedInstance> scenarios = make_scenarios();
  const std::vector<int> shard_counts = shard_counts_from_env();
  const int workers = workers_from_env();
  const int rotations = 10;  // 20 scenarios x 10 = 200 requests per config

  Table table({"shards", "workers/shard", "requests", "req/s", "cache hit %",
               "total welfare", "ms"});
  for (const int shards : shard_counts) {
    const StreamOutcome outcome =
        drive_stream(scenarios, shards, workers, rotations);
    const double rate =
        static_cast<double>(outcome.requests) / outcome.seconds;
    const double hit_rate = 100.0 * static_cast<double>(outcome.cache_hits) /
                            static_cast<double>(outcome.requests);
    table.add_row({Table::integer(shards), Table::integer(workers),
                   Table::integer(static_cast<long long>(outcome.requests)),
                   Table::num(rate, 1), Table::num(hit_rate, 1),
                   Table::num(outcome.welfare, 2),
                   Table::num(1e3 * outcome.seconds, 1)});
    bench::record(
        {"e11/shards=" + std::to_string(shards) +
             "/workers=" + std::to_string(workers),
         outcome.seconds, outcome.welfare, "auto",
         {{"requests", static_cast<double>(outcome.requests)},
          {"requests_per_sec", rate},
          {"cache_hit_rate", hit_rate / 100.0},
          {"shards", static_cast<double>(shards)},
          {"workers_per_shard", static_cast<double>(workers)}}});
  }
  bench::print_experiment(
      "E11a: auction service throughput (mixed scenario stream)", table,
      "VERDICT: after the warmup rotation the stream is cache-dominated, so "
      "requests/sec tracks fingerprint+lookup cost; total welfare is "
      "invariant across shard/worker layouts (determinism), and shard "
      "counts trade lock contention against cache fragmentation");
}

// --------------------------------------------------------------- E11d

void telemetry_overhead_table() {
  // The obs acceptance criterion: with tracing fully on (every request
  // records spans + latency histograms) the cache-warm request rate must
  // stay within 3% of the minimal-metrics run. span_sample_every = 0
  // disables span recording and histogram sampling; the COUNTERS stay on
  // in both runs -- they are the same atomics the service always
  // maintained, so they are not an overhead source to measure.
  const std::vector<gen::NamedInstance> scenarios = make_scenarios();
  constexpr int kShards = 2;
  constexpr int kRotations = 20;  // cache-dominated: the hot path measured
  constexpr int kReps = 3;        // best-of to shave scheduler noise

  const auto best_rate = [&](std::uint32_t sample_every) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const StreamOutcome outcome =
          drive_stream(scenarios, kShards, 1, kRotations, sample_every);
      best = std::max(best, static_cast<double>(outcome.requests) /
                                outcome.seconds);
    }
    return best;
  };

  const double rate_off = best_rate(0);
  const double rate_on = best_rate(1);
  const double overhead_percent = 100.0 * (1.0 - rate_on / rate_off);

  Table table({"telemetry", "req/s", "overhead %"});
  table.add_row({"off (sample=0)", Table::num(rate_off, 1), "-"});
  table.add_row(
      {"on (sample=1)", Table::num(rate_on, 1),
       Table::num(overhead_percent, 2)});
  bench::record({"e11/telemetry_overhead", 0.0, 0.0, "auto",
                 {{"requests_per_sec_spans_off", rate_off},
                  {"requests_per_sec_spans_on", rate_on},
                  {"overhead_percent", overhead_percent}}});
  bench::print_experiment(
      "E11d: telemetry overhead on the cache-warm path", table,
      overhead_percent <= 3.0
          ? "VERDICT: full span+histogram sampling costs <= 3% of cache-warm "
            "throughput (acceptance bound)"
          : "VERDICT: REGRESSION: telemetry overhead " +
                Table::num(overhead_percent, 2) + "% exceeds the 3% bound");
}

// --------------------------------------------------------------- E11b

/// Distinct symmetric instances for the deadline mix (no cache hits, no
/// coalescing: every request is a real solve).
std::vector<AuctionInstance> make_deadline_workload(std::size_t count) {
  std::vector<AuctionInstance> instances;
  instances.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    instances.push_back(
        gen::make_disk_auction(20, 2, gen::ValuationMix::kMixed, 7000 + i));
  }
  return instances;
}

struct DeadlineMixOutcome {
  int tight_met = 0;
  int loose_met = 0;
  int tight_total = 0;
  int loose_total = 0;
  double welfare = 0.0;
};

/// Drives the alternating tight/loose burst through one configuration and
/// scores deadlines server-side: met when queue wait + solve wall time fit
/// inside the request's budget. Admission stays kAcceptAll so the two
/// queue policies solve identical work (welfare must match exactly).
DeadlineMixOutcome drive_deadline_mix(
    const std::vector<AuctionInstance>& instances, QueuePolicy queue,
    int shards, double tight_budget, double loose_budget) {
  service::ServiceOptions config;
  config.shards = shards;
  config.threads_per_shard = 1;
  config.queue = queue;
  config.admission = AdmissionPolicy::kAcceptAll;
  config.cache_bytes_per_shard = 0;  // every request is a real solve
  service::AuctionService service(config);

  std::vector<service::RequestId> ids;
  std::vector<double> budgets;
  ids.reserve(instances.size());
  budgets.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SolveOptions options;
    options.pipeline.rounding_repetitions = 12;
    options.time_budget_seconds =
        (i % 2 == 0) ? tight_budget : loose_budget;
    budgets.push_back(options.time_budget_seconds);
    ids.push_back(service.submit(instances[i], "lp-rounding", options));
  }

  DeadlineMixOutcome outcome;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SolveReport report = service.get(ids[i]);
    outcome.welfare += report.welfare;
    const bool tight = i % 2 == 0;
    const bool met =
        report.queue_wait_seconds + report.wall_time_seconds <= budgets[i];
    (tight ? outcome.tight_total : outcome.loose_total) += 1;
    if (met) (tight ? outcome.tight_met : outcome.loose_met) += 1;
  }
  return outcome;
}

void deadline_mix_table() {
  constexpr std::size_t kRequests = 48;
  const std::vector<AuctionInstance> instances =
      make_deadline_workload(kRequests);

  // Calibrate the budgets from one measured solve so the tight/loose split
  // means the same thing on every machine: tight covers ~30 solves (FIFO
  // head-of-line blocking misses the tail of the 24 tight requests,
  // deadline ordering runs them first and meets them all), loose covers
  // the whole burst many times over.
  SolveOptions probe_options;
  probe_options.pipeline.rounding_repetitions = 12;
  double probe_seconds = 0.0;
  for (int i = 0; i < 3; ++i) {  // average over warm runs: the budgets
    probe_seconds +=              // should track the steady-state cost
        make_solver("lp-rounding")->solve(instances[i], probe_options)
            .wall_time_seconds;
  }
  const double solve_seconds = std::max(probe_seconds / 3.0, 1e-5);
  const double tight_budget = 30.0 * solve_seconds;
  const double loose_budget = 1000.0 * solve_seconds;

  Table table({"queue", "shards", "tight met", "loose met", "deadlines met",
               "total welfare"});
  DeadlineMixOutcome fifo;
  DeadlineMixOutcome deadline;
  std::vector<double> welfare_by_layout;
  const auto run = [&](QueuePolicy queue, int shards) {
    const DeadlineMixOutcome outcome = drive_deadline_mix(
        instances, queue, shards, tight_budget, loose_budget);
    const std::string queue_name =
        queue == QueuePolicy::kDeadline ? "deadline" : "fifo";
    table.add_row(
        {queue_name, Table::integer(shards),
         Table::num(outcome.tight_met, 0) + "/" +
             Table::num(outcome.tight_total, 0),
         Table::num(outcome.loose_met, 0) + "/" +
             Table::num(outcome.loose_total, 0),
         Table::integer(outcome.tight_met + outcome.loose_met),
         Table::num(outcome.welfare, 2)});
    bench::record(
        {"e11/deadline_mix/queue=" + queue_name +
             "/shards=" + std::to_string(shards),
         0.0, outcome.welfare, "lp-rounding",
         {{"deadlines_met",
           static_cast<double>(outcome.tight_met + outcome.loose_met)},
          {"tight_met", static_cast<double>(outcome.tight_met)},
          {"tight_total", static_cast<double>(outcome.tight_total)},
          {"loose_met", static_cast<double>(outcome.loose_met)},
          {"tight_budget_seconds", tight_budget}}});
    return outcome;
  };

  // The head-to-head comparison runs on one shard/worker, where
  // head-of-line blocking is sharpest; the layout sweep checks welfare
  // invariance under deadline ordering.
  fifo = run(QueuePolicy::kFifo, 1);
  deadline = run(QueuePolicy::kDeadline, 1);
  welfare_by_layout.push_back(deadline.welfare);
  for (const int shards : {2, 4}) {
    welfare_by_layout.push_back(run(QueuePolicy::kDeadline, shards).welfare);
  }

  const int fifo_met = fifo.tight_met + fifo.loose_met;
  const int deadline_met = deadline.tight_met + deadline.loose_met;
  bool welfare_invariant = true;
  for (const double welfare : welfare_by_layout) {
    welfare_invariant =
        welfare_invariant && welfare == welfare_by_layout.front();
  }
  bench::print_experiment(
      "E11b: deadline mix, FIFO baseline vs deadline-ordered queue", table,
      std::string(deadline_met > fifo_met
                      ? "VERDICT: deadline ordering meets strictly more "
                        "deadlines than FIFO ("
                      : "VERDICT: REGRESSION: deadline ordering did NOT beat "
                        "FIFO (") +
          std::to_string(deadline_met) + " vs " + std::to_string(fifo_met) +
          " of " + std::to_string(kRequests) + "); welfare " +
          (welfare_invariant ? "invariant" : "NOT invariant") +
          " across shard layouts");
}

// --------------------------------------------------------------- E11c

void restart_table() {
  const std::vector<gen::NamedInstance> scenarios = make_scenarios();
  const std::string snapshot_path = "BENCH_e11_snapshot.bin";
  std::remove(snapshot_path.c_str());
  SolveOptions options;
  options.pipeline.rounding_repetitions = 12;

  const auto run_rotations = [&](service::AuctionService& service,
                                 int rotations, double& welfare) {
    for (int rotation = 0; rotation < rotations; ++rotation) {
      std::vector<service::RequestId> ids;
      ids.reserve(scenarios.size());
      for (const gen::NamedInstance& scenario : scenarios) {
        ids.push_back(
            service.submit(scenario.view(), service::kAutoSolver, options));
      }
      // Draining between rotations keeps repeats out of the coalescing
      // window: replays must be cache hits, the metric under test.
      for (const service::RequestId id : ids) {
        welfare += service.get(id).welfare;
      }
    }
  };

  // Uninterrupted baseline: 3 rotations, one warmup + two replays.
  double baseline_welfare = 0.0;
  double baseline_hit_rate = 0.0;
  std::uint64_t baseline_requests = 0;
  {
    service::ServiceOptions config;
    config.shards = 2;
    service::AuctionService service(config);
    run_rotations(service, 3, baseline_welfare);
    const service::ServiceStats stats = service.stats();
    baseline_requests = stats.submitted;
    baseline_hit_rate = static_cast<double>(stats.cache_hits) /
                        static_cast<double>(stats.submitted);
  }

  // Kill/restart: rotations 1+2 in the first process-life, snapshot on
  // shutdown, rotation 3 in the second. The second life changes the shard
  // layout on purpose: snapshot entries re-route on restore.
  double restart_welfare = 0.0;
  std::uint64_t restart_hits = 0;
  std::uint64_t restart_requests = 0;
  std::uint64_t restored = 0;
  {
    service::ServiceOptions config;
    config.shards = 2;
    config.snapshot_path = snapshot_path;
    service::AuctionService first_life(config);
    run_rotations(first_life, 2, restart_welfare);
    const service::ServiceStats stats = first_life.stats();
    restart_hits += stats.cache_hits;
    restart_requests += stats.submitted;
    first_life.shutdown();  // writes the snapshot ("kill")
  }
  bool clean_baseline = true;
  {
    service::ServiceOptions config;
    config.shards = 4;  // different layout: restore must re-route
    config.snapshot_path = snapshot_path;
    service::AuctionService second_life(config);
    const service::ServiceStats at_restore = second_life.stats();
    restored = at_restore.snapshot_restored;
    // Post-restore hit rates must be computed from a clean baseline: the
    // restore brings cache entries, never traffic counters.
    clean_baseline = at_restore.cache_hits == 0 && at_restore.submitted == 0 &&
                     at_restore.completed == 0;
    run_rotations(second_life, 1, restart_welfare);
    const service::ServiceStats stats = second_life.stats();
    restart_hits += stats.cache_hits;
    restart_requests += stats.submitted;
  }
  std::remove(snapshot_path.c_str());
  const double restart_hit_rate = static_cast<double>(restart_hits) /
                                  static_cast<double>(restart_requests);
  const double gap_points =
      100.0 * (baseline_hit_rate - restart_hit_rate);

  Table table({"run", "requests", "cache hit %", "restored entries",
               "total welfare"});
  table.add_row({"no restart",
                 Table::integer(static_cast<long long>(baseline_requests)),
                 Table::num(100.0 * baseline_hit_rate, 1), "-",
                 Table::num(baseline_welfare, 2)});
  table.add_row({"kill+restart",
                 Table::integer(static_cast<long long>(restart_requests)),
                 Table::num(100.0 * restart_hit_rate, 1),
                 Table::integer(static_cast<long long>(restored)),
                 Table::num(restart_welfare, 2)});
  bench::record({"e11/restart/baseline", 0.0, baseline_welfare, "auto",
                 {{"cache_hit_rate", baseline_hit_rate}}});
  bench::record({"e11/restart/resumed", 0.0, restart_welfare, "auto",
                 {{"cache_hit_rate", restart_hit_rate},
                  {"snapshot_restored", static_cast<double>(restored)},
                  {"hit_rate_gap_points", gap_points},
                  {"clean_stats_baseline", clean_baseline ? 1.0 : 0.0}}});
  bench::print_experiment(
      "E11c: kill/restart with cache snapshot persistence", table,
      (gap_points <= 5.0 && gap_points >= -5.0
           ? std::string("VERDICT: the restarted service resumes warm (hit "
                         "rate within 5 points of the uninterrupted run")
           : std::string("VERDICT: REGRESSION: restart lost the cache (gap ") +
                 Table::num(gap_points, 1) + " points") +
          "); welfare " +
          (baseline_welfare == restart_welfare ? "matches exactly"
                                               : "DIVERGED") +
          " across the restart; post-restore counters " +
          (clean_baseline ? "start from a clean baseline"
                          : "REGRESSION: inherited stale traffic"));
}

void bm_service_stream(benchmark::State& state) {
  const std::vector<gen::NamedInstance> scenarios = make_scenarios();
  const int shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const StreamOutcome outcome = drive_stream(scenarios, shards, 1, 3);
    benchmark::DoNotOptimize(outcome.welfare);
  }
}
BENCHMARK(bm_service_stream)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ssa::bench::run(argc, argv, [] {
    throughput_table();
    telemetry_overhead_table();
    deadline_mix_table();
    restart_table();
  });
}
