// Experiment E13: minutes-long open-loop soak of the serving stack.
//
// A seed-pinned bursty trace (load::generate_trace: on/off bursts, a
// diurnal ramp, Zipf popularity over a 12-scenario pool, churn variants,
// tight/loose/none deadline classes) replays open-loop (load::run_trace)
// against two transports of the SAME serving configuration:
//   e13/local -- LocalClient over an in-process AuctionService;
//   e13/door  -- TcpClient -> FrontDoor -> 2 in-process ServiceServer
//                backends (one multiplexed connection per driver thread).
// The offered rate and the deadline budgets are calibrated from a probe
// phase (median real-solve cost of the pool on this machine), so the soak
// stresses comparably on fast and slow hosts. SSA_SOAK_SECONDS scales the
// horizon (default 60; the CI smoke runs 10). SSA_SWEEP_RATES (e.g.
// "0.5,1,2,4") adds an offered-rate sweep: one extra door soak per entry
// at that multiple of the calibrated rate, so the JSON carries the
// rate-vs-p50/p99 curve whose knee is the capacity estimate.
//
// Reported per transport: p50/p99/p999 service latency, p99 turnaround,
// driver lateness (schedule slip, kept in its own histogram so it cannot
// be booked as service time), shed/degrade/timeout/coalesce/cache-hit
// rates and per-class deadline hit rates. A final invariant phase replays
// a prefix of the same trace with budgets stripped through FRESH instances
// of both transports: total welfare must match EXACTLY -- the
// location-transparency guarantee. (Only the budget-free replay is
// comparable bitwise: degraded payloads are timing-dependent and are
// never cached for the same reason.)
//
// Every row lands in BENCH_bench_e13_soak.json via bench_util.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "client/client.hpp"
#include "load/load.hpp"
#include "net/front_door.hpp"
#include "net/service_server.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace ssa;

double soak_seconds() {
  if (const char* env = std::getenv("SSA_SOAK_SECONDS")) {
    const double value = std::atof(env);
    if (value > 0.0) return value;
  }
  return 60.0;
}

/// Offered-rate sweep mode: SSA_SWEEP_RATES="0.5,1,2,4" runs one extra
/// door-topology soak per entry, each at that MULTIPLE of the calibrated
/// rate, recording the rate-vs-latency curve (the knee locates the wire
/// path's capacity on this machine). Unset or empty = no sweep.
std::vector<double> sweep_multipliers() {
  std::vector<double> multipliers;
  const char* env = std::getenv("SSA_SWEEP_RATES");
  if (env == nullptr) return multipliers;
  std::string text(env);
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) {
      const double value = std::atof(token.c_str());
      if (value > 0.0) multipliers.push_back(value);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return multipliers;
}

/// The serving configuration under test -- identical for the local
/// service and for each door backend, so the transports differ only in
/// the wire between the driver and the solvers.
service::ServiceOptions backend_options() {
  service::ServiceOptions config;
  config.shards = 2;
  config.threads_per_shard = 1;
  return config;  // admission kDegrade: unmeetable deadlines degrade
}

/// AuctionClient adapter that opens one TcpClient per calling thread.
/// Since v3 a single TcpClient pipelines concurrent calls on one
/// multiplexed connection, so sharing one would be correct; per-thread
/// connections are kept so the soak also exercises the server's
/// many-connection path (and removes the shared send mutex from the
/// driver's critical path). Door/server request ids are process-wide, so
/// any connection may claim any id. Entries are never erased;
/// unordered_map node stability keeps handed-out references valid for the
/// adapter's lifetime.
class PerThreadTcpClient final : public client::AuctionClient {
 public:
  explicit PerThreadTcpClient(std::uint16_t port) : port_(port) {}

  [[nodiscard]] client::RequestId submit(const AnyInstance& instance,
                                         const std::string& solver,
                                         const SolveOptions& options) override {
    return connection().submit(instance, solver, options);
  }
  [[nodiscard]] SolveReport get(client::RequestId id) override {
    return connection().get(id);
  }
  [[nodiscard]] std::optional<SolveReport> try_get(
      client::RequestId id) override {
    return connection().try_get(id);
  }
  [[nodiscard]] client::ServiceStats stats() override {
    return connection().stats();
  }
  [[nodiscard]] obs::TelemetrySnapshot telemetry() override {
    return connection().telemetry();
  }
  void shutdown() override { connection().shutdown(); }

 private:
  [[nodiscard]] client::TcpClient& connection() {
    const std::thread::id thread = std::this_thread::get_id();
    const std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<client::TcpClient>& slot = connections_[thread];
    if (!slot) slot = std::make_unique<client::TcpClient>(port_);
    return *slot;
  }

  std::uint16_t port_;
  std::mutex mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<client::TcpClient>>
      connections_;
};

/// Median wall time of one real solve per pool scenario, measured through
/// a throwaway service: the machine-speed yardstick the offered rate and
/// the deadline budgets are expressed in.
double probe_solve_seconds(load::ScenarioPool& pool) {
  client::LocalClient client{backend_options()};
  std::vector<double> costs;
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(pool.size());
       ++s) {
    const SolveReport report =
        client.get(client.submit(pool.instance(s).view()));
    costs.push_back(std::max(report.wall_time_seconds, 1e-6));
  }
  client.shutdown();
  std::nth_element(costs.begin(), costs.begin() + costs.size() / 2,
                   costs.end());
  return costs[costs.size() / 2];
}

load::TraceSpec soak_spec(double horizon_seconds) {
  load::TraceSpec spec;
  spec.seed = 20260808;
  spec.duration_seconds = horizon_seconds;
  spec.rate_per_second = 1.0;  // placeholder; calibrated after the probe
  spec.arrivals = load::ArrivalProcess::kOnOffBurst;
  spec.burst_rate_multiplier = 4.0;
  spec.idle_rate_multiplier = 0.25;
  spec.mean_burst_seconds = 2.0;
  spec.mean_idle_seconds = 6.0;
  spec.diurnal_amplitude = 0.25;
  spec.diurnal_period_seconds = std::max(10.0, horizon_seconds / 3.0);
  spec.pool_size = 12;
  spec.zipf_exponent = 1.1;
  spec.churn_probability = 0.15;
  spec.max_variants = 3;
  spec.tight_fraction = 0.25;
  spec.loose_fraction = 0.25;
  spec.bidders = 12;
  spec.channels = 2;
  return spec;
}

double rate_of(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

double met_rate(const load::ClassOutcome& outcome) {
  const std::uint64_t scored = outcome.deadline_met + outcome.deadline_missed;
  return rate_of(outcome.deadline_met, scored);
}

/// Per-phase telemetry section in the BENCH json: the serving-side view
/// of the phase (how many solver runs, warm starts, admission verdicts
/// and spans the export carries), flattened from the exact snapshot the
/// kGetTelemetry path (or the in-process registry) returned. The full
/// snapshots additionally land in TELEMETRY_bench_e13_soak.json.
void record_telemetry(const std::string& phase,
                      const obs::TelemetrySnapshot& snapshot) {
  bench::record(
      {"e13/telemetry/" + phase,
       0.0,
       0.0,
       "auto",
       {{"submitted", static_cast<double>(
             snapshot.counter_or("service.submitted"))},
        {"completed", static_cast<double>(
             snapshot.counter_or("service.completed"))},
        {"solves", static_cast<double>(snapshot.counter_or("service.solves"))},
        {"cache_hits", static_cast<double>(
             snapshot.counter_or("service.cache_hits"))},
        {"coalesced", static_cast<double>(
             snapshot.counter_or("service.coalesced"))},
        {"warm_starts", static_cast<double>(
             snapshot.counter_or("service.warm_starts"))},
        {"basis_hits", static_cast<double>(
             snapshot.counter_or("service.basis_hits"))},
        {"scheduler_admitted", static_cast<double>(
             snapshot.counter_or("scheduler.admitted"))},
        {"scheduler_degraded", static_cast<double>(
             snapshot.counter_or("scheduler.degraded"))},
        {"scheduler_rejected", static_cast<double>(
             snapshot.counter_or("scheduler.rejected"))},
        {"door_submits", static_cast<double>(
             snapshot.counter_or("door.submits"))},
        {"spans", static_cast<double>(snapshot.spans.size())}}});
}

/// Writes the phase-keyed full telemetry snapshots next to the BENCH json
/// (CI uploads it as an artifact beside the BENCH files).
void write_telemetry_json(
    const std::vector<std::pair<std::string, obs::TelemetrySnapshot>>&
        phases) {
  const std::string path = "TELEMETRY_bench_e13_soak.json";
  std::ofstream out(path);
  if (!out) return;
  out << "{";
  bool first = true;
  for (const auto& [phase, snapshot] : phases) {
    out << (first ? "\n" : ",\n") << "  \"" << phase
        << "\": " << obs::to_json(snapshot);
    first = false;
  }
  out << "\n}\n";
  std::cout << "wrote " << path << " (" << phases.size() << " phases)\n";
}

void record_soak(const std::string& name, const load::LoadReport& report) {
  const load::ClassOutcome& tight =
      report.by_class[static_cast<int>(load::DeadlineClass::kTight)];
  const load::ClassOutcome& loose =
      report.by_class[static_cast<int>(load::DeadlineClass::kLoose)];
  bench::record(
      {name,
       report.elapsed_seconds,
       report.total_welfare,
       "auto",
       {{"requests", static_cast<double>(report.requests)},
        {"completed", static_cast<double>(report.completed)},
        {"errors", static_cast<double>(report.errors)},
        {"offered_rate", report.offered_rate},
        {"achieved_rate", report.achieved_rate()},
        {"service_p50", report.service_latency.p50()},
        {"service_p99", report.service_latency.p99()},
        {"service_p999", report.service_latency.p999()},
        {"turnaround_p99", report.turnaround.p99()},
        {"lateness_p99", report.lateness.p99()},
        {"lateness_max", report.lateness.max()},
        {"cache_hit_rate", rate_of(report.cache_hits, report.completed)},
        {"coalesce_rate", rate_of(report.coalesced, report.completed)},
        {"degrade_rate", rate_of(report.degraded, report.completed)},
        {"shed_rate", rate_of(report.rejected, report.requests)},
        {"timeout_rate", rate_of(report.timed_out, report.completed)},
        {"tight_met_rate", met_rate(tight)},
        {"loose_met_rate", met_rate(loose)}}});
}

void soak_tables() {
  const double horizon = soak_seconds();
  load::TraceSpec spec = soak_spec(horizon);

  // The pool shape ignores the rate, so it can be built (and probed)
  // before calibration fills the rate in.
  load::ScenarioPool pool(spec);
  const double probe = probe_solve_seconds(pool);
  spec.rate_per_second = std::clamp(3.0 / probe, 4.0, 400.0);
  const load::Trace trace = load::generate_trace(spec);
  pool.materialize(trace);

  load::DriverOptions options;
  options.submitters = 4;
  options.tight_budget_seconds = 30.0 * probe;
  options.loose_budget_seconds = 1000.0 * probe;

  std::vector<std::pair<std::string, obs::TelemetrySnapshot>> telemetry_phases;

  // Phase a: in-process transport.
  load::LoadReport local_report;
  {
    client::LocalClient client{backend_options()};
    local_report = load::run_trace(client, pool, trace, options);
    telemetry_phases.emplace_back("local", client.telemetry());
    client.shutdown();
  }
  record_soak("e13/local", local_report);
  record_telemetry("local", telemetry_phases.back().second);

  // Phase b: the full wire path, 2 backends behind a front door.
  const auto door_run = [&](const load::Trace& events,
                            const load::DriverOptions& run_options,
                            obs::TelemetrySnapshot* telemetry_out = nullptr) {
    std::vector<std::unique_ptr<net::ServiceServer>> backends;
    std::vector<net::Endpoint> endpoints;
    for (int b = 0; b < 2; ++b) {
      backends.push_back(std::make_unique<net::ServiceServer>(
          net::ServiceServerOptions{backend_options(), 0}));
      endpoints.push_back(
          net::Endpoint{net::kLoopbackHost, backends.back()->port()});
    }
    net::FrontDoor door({endpoints, 0});
    load::LoadReport report;
    {
      PerThreadTcpClient client(door.port());
      report = load::run_trace(client, pool, events, run_options);
      // The deployment-wide snapshot (door merge of both backends plus
      // the door's own registry), fetched over the wire BEFORE shutdown
      // drains the backends away.
      if (telemetry_out != nullptr) *telemetry_out = client.telemetry();
      client.shutdown();  // wire kShutdown: drains backends, stops door
    }
    door.stop();
    for (const std::unique_ptr<net::ServiceServer>& backend : backends) {
      backend->stop();
    }
    return report;
  };
  obs::TelemetrySnapshot door_telemetry;
  const load::LoadReport door_report = door_run(trace, options, &door_telemetry);
  record_soak("e13/door", door_report);
  record_telemetry("door", door_telemetry);
  telemetry_phases.emplace_back("door", std::move(door_telemetry));
  write_telemetry_json(telemetry_phases);

  // Optional phase: the offered-rate sweep. Each point is a fresh
  // seed-pinned trace at multiplier x calibrated rate, replayed through
  // the full door topology; the per-point horizon is capped so a wide
  // sweep stays affordable.
  std::vector<std::pair<double, load::LoadReport>> sweep_results;
  for (const double multiplier : sweep_multipliers()) {
    load::TraceSpec sweep_spec = spec;
    sweep_spec.duration_seconds = std::min(horizon, 20.0);
    sweep_spec.rate_per_second = spec.rate_per_second * multiplier;
    const load::Trace sweep_trace = load::generate_trace(sweep_spec);
    pool.materialize(sweep_trace);
    const load::LoadReport report = door_run(sweep_trace, options);
    bench::record({"e13/sweep/x" + Table::num(multiplier, 2),
                   report.elapsed_seconds,
                   report.total_welfare,
                   "auto",
                   {{"rate_multiplier", multiplier},
                    {"offered_rate", report.offered_rate},
                    {"achieved_rate", report.achieved_rate()},
                    {"service_p50", report.service_latency.p50()},
                    {"service_p99", report.service_latency.p99()},
                    {"lateness_p99", report.lateness.p99()},
                    {"shed_rate", rate_of(report.rejected, report.requests)},
                    {"timeout_rate",
                     rate_of(report.timed_out, report.completed)}}});
    sweep_results.emplace_back(multiplier, report);
  }

  // Phase c: the location-transparency invariant. The same trace prefix
  // with budgets stripped (no deadlines -> no degraded, timing-dependent
  // payloads) replays unpaced through fresh instances of both transports;
  // total welfare must match EXACTLY.
  load::Trace prefix;
  prefix.spec = spec;
  const std::size_t prefix_events =
      std::min<std::size_t>(trace.events.size(), 300);
  prefix.events.assign(trace.events.begin(),
                       trace.events.begin() +
                           static_cast<std::ptrdiff_t>(prefix_events));
  load::DriverOptions replay;
  replay.submitters = 4;
  replay.time_scale = 0.0;  // unpaced: replay as fast as possible
  load::LoadReport invariant_local;
  {
    client::LocalClient client{backend_options()};
    invariant_local = load::run_trace(client, pool, prefix, replay);
    client.shutdown();
  }
  const load::LoadReport invariant_door = door_run(prefix, replay);
  const bool invariant =
      invariant_local.total_welfare == invariant_door.total_welfare &&
      invariant_local.completed == invariant_door.completed;
  bench::record({"e13/invariant", invariant_local.elapsed_seconds,
                 invariant_local.total_welfare, "auto",
                 {{"events", static_cast<double>(prefix_events)},
                  {"door_welfare", invariant_door.total_welfare},
                  {"welfare_invariant", invariant ? 1.0 : 0.0}}});

  Table table({"phase", "req/s", "p50 ms", "p99 ms", "p999 ms", "shed %",
               "hit %", "late p99 ms", "tight met %", "loose met %"});
  const auto row = [&](const char* label, const load::LoadReport& report) {
    table.add_row(
        {label, Table::num(report.achieved_rate(), 0),
         Table::num(1e3 * report.service_latency.p50(), 3),
         Table::num(1e3 * report.service_latency.p99(), 3),
         Table::num(1e3 * report.service_latency.p999(), 3),
         Table::num(100.0 * rate_of(report.rejected, report.requests), 1),
         Table::num(100.0 * rate_of(report.cache_hits, report.completed), 1),
         Table::num(1e3 * report.lateness.p99(), 3),
         Table::num(
             100.0 * met_rate(report.by_class[static_cast<int>(
                         load::DeadlineClass::kTight)]),
             1),
         Table::num(
             100.0 * met_rate(report.by_class[static_cast<int>(
                         load::DeadlineClass::kLoose)]),
             1)});
  };
  row("LocalClient (in-process)", local_report);
  row("FrontDoor -> 2 backends", door_report);
  for (const auto& [multiplier, report] : sweep_results) {
    const std::string label = "door sweep x" + Table::num(multiplier, 2);
    row(label.c_str(), report);
  }

  bench::print_experiment(
      "E13: open-loop soak, " + Table::num(horizon, 0) + " s horizon at " +
          Table::num(spec.rate_per_second, 0) +
          " req/s offered (probe-calibrated)",
      table,
      std::string("VERDICT: budget-free replay welfare ") +
          (invariant ? "EXACTLY invariant" : "DIVERGED") +
          " across transports (" + std::to_string(prefix_events) +
          " events); soak errors local=" +
          std::to_string(local_report.errors) +
          " door=" + std::to_string(door_report.errors));
}

void bm_generate_trace(benchmark::State& state) {
  // Generator throughput: one 10 s bursty trace per iteration.
  load::TraceSpec spec = soak_spec(10.0);
  spec.rate_per_second = 200.0;
  for (auto _ : state) {
    const load::Trace trace = load::generate_trace(spec);
    benchmark::DoNotOptimize(trace.events.size());
  }
}
BENCHMARK(bm_generate_trace)->Unit(benchmark::kMillisecond);

void bm_histogram_add(benchmark::State& state) {
  // The per-claim telemetry cost inside the driver's collector loop.
  LatencyHistogram histogram;
  double value = 1e-6;
  for (auto _ : state) {
    histogram.add(value);
    value = value < 1.0 ? value * 1.001 : 1e-6;
    benchmark::DoNotOptimize(histogram.count());
  }
}
BENCHMARK(bm_histogram_add);

}  // namespace

int main(int argc, char** argv) {
  return ssa::bench::run(argc, argv, [] { soak_tables(); });
}
