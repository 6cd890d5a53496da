// Auction service demo: the long-lived serving layer handling a mixed
// stream of auction rounds, the way a spectrum-market operator would run
// it -- submit every incoming round, let the selection policy pick the
// algorithm, and let the per-shard result cache absorb repeated rounds.
//
// The demo drives the service through the transport-agnostic
// AuctionClient API (client/client.hpp): swap the LocalClient below for a
// TcpClient at a FrontDoor's port and the same code runs against N
// service processes (see front_door_demo.cpp).
//
// The stream interleaves 200 requests over a rotating set of 25 distinct
// scenarios from the deterministic scenario pool (load::ScenarioPool:
// disk/random-graph/clique symmetric auctions and Section-6 asymmetric
// instances), so each instance recurs 8 times: the first submission
// computes, the other 7 hit the cache with bitwise-equal allocations. For
// sustained open-loop load on the serving stack, see perfbench/README.md.
//
// Build & run:  ./example_service_demo [--telemetry]
//   --telemetry   additionally print the service's registry snapshot
//                 (counters, gauges, latency histograms, recent spans)

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "client/client.hpp"
#include "gen/scenario.hpp"
#include "load/workload.hpp"
#include "obs/telemetry.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ssa;

  bool show_telemetry = false;
  for (int i = 1; i < argc; ++i) {
    show_telemetry = show_telemetry || std::strcmp(argv[i], "--telemetry") == 0;
  }

  // A long-lived service: 4 shards, one worker each, 8 MiB cache per shard,
  // reached through the in-process AuctionClient.
  service::ServiceOptions config;
  config.shards = 4;
  config.threads_per_shard = 1;
  client::LocalClient client(config);

  // 25 distinct scenarios (a rotating daily workload), streamed 8x each:
  // the scenario pool cycles disk, random-graph and clique
  // symmetric auctions plus random and hardness asymmetric instances,
  // all derived deterministically from the spec seed.
  load::TraceSpec workload;
  workload.seed = 9000;
  workload.pool_size = 25;
  workload.bidders = 12;
  workload.channels = 2;
  load::ScenarioPool pool(workload);
  std::vector<gen::NamedInstance> scenarios;
  scenarios.reserve(pool.size());
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(pool.size());
       ++s) {
    scenarios.push_back(pool.instance(s));
  }

  const int kRequests = 200;
  std::vector<client::RequestId> ids;
  ids.reserve(kRequests);
  std::vector<SolveReport> reports;
  reports.reserve(kRequests);
  SolveOptions options;
  options.pipeline.rounding_repetitions = 16;
  for (int r = 0; r < kRequests; ++r) {
    const gen::NamedInstance& scenario = scenarios[r % scenarios.size()];
    // "auto": the policy picks by instance type/size/weightedness.
    ids.push_back(
        client.submit(scenario.view(), client::kAutoSolver, options));
    // The first rotation (day one) computes every scenario once; claiming
    // it before submitting more seeds the caches -- through the portable
    // AuctionClient calls alone -- so the remaining seven rotations
    // replay from cache instead of racing the original computations.
    if (static_cast<std::size_t>(r) == scenarios.size() - 1) {
      for (const client::RequestId id : ids) reports.push_back(client.get(id));
      ids.clear();
    }
  }

  // Claim the rest (blocking gets; submission order is irrelevant).
  for (const client::RequestId id : ids) reports.push_back(client.get(id));

  // First occurrence of each scenario vs its later (cached) submissions.
  Table table({"scenario", "solver selected", "welfare", "cache hits",
               "allocations identical"});
  const std::size_t distinct = scenarios.size();
  bool all_identical = true;
  for (std::size_t s = 0; s < distinct; ++s) {
    const SolveReport& first = reports[s];
    int hits = 0;
    bool identical = true;
    for (std::size_t r = s + distinct; r < reports.size(); r += distinct) {
      hits += reports[r].cache_hit ? 1 : 0;
      identical = identical && reports[r].allocation.bundles ==
                                   first.allocation.bundles;
    }
    all_identical = all_identical && identical;
    // Pool labels already carry the scenario index ("disk#0", ...).
    table.add_row({scenarios[s].label,
                   first.solver_selected, Table::num(first.welfare, 2),
                   std::to_string(hits), identical ? "yes" : "NO"});
  }
  table.print(std::cout, "auction service: 200-request mixed stream");

  const client::ServiceStats stats = client.stats();
  std::cout << "requests: " << stats.completed << "/" << stats.submitted
            << " completed, cache hits: " << stats.cache_hits << " ("
            << Table::num(100.0 * static_cast<double>(stats.cache_hits) /
                              static_cast<double>(stats.submitted),
                          1)
            << "%), fallbacks: " << stats.fallbacks
            << ", cache: " << stats.cache_entries << " entries / "
            << stats.cache_bytes << " bytes across " << config.shards
            << " shards\n";

  // The registry view of the same traffic (always fetched: the self-check
  // below cross-validates it against the observed request counts).
  const obs::TelemetrySnapshot telemetry = client.telemetry();
  if (show_telemetry) {
    std::cout << "\n" << obs::format(telemetry);
  }
  client.shutdown();

  // Demo doubles as a smoke test: every repeat must have hit the cache
  // with a bitwise-identical allocation.
  if (!all_identical) {
    std::cerr << "FAIL: a cached replay diverged from its original\n";
    return EXIT_FAILURE;
  }
  if (stats.cache_hits != static_cast<std::uint64_t>(kRequests) - distinct) {
    std::cerr << "FAIL: expected " << (kRequests - distinct)
              << " cache hits, saw " << stats.cache_hits << "\n";
    return EXIT_FAILURE;
  }
  // Telemetry self-check: the registry counters must describe exactly the
  // traffic this process observed -- every submitted request completed,
  // and solves + cache hits + coalesced account for all of them.
  if (telemetry.counter_or("service.completed") !=
          static_cast<std::uint64_t>(kRequests) ||
      telemetry.counter_or("service.submitted") !=
          static_cast<std::uint64_t>(kRequests)) {
    std::cerr << "FAIL: registry saw "
              << telemetry.counter_or("service.completed") << "/"
              << telemetry.counter_or("service.submitted")
              << " completed/submitted, expected " << kRequests << "\n";
    return EXIT_FAILURE;
  }
  if (telemetry.counter_or("service.solves") +
          telemetry.counter_or("service.cache_hits") +
          telemetry.counter_or("service.coalesced") !=
      static_cast<std::uint64_t>(kRequests)) {
    std::cerr << "FAIL: solves + cache hits + coalesced do not cover the "
              << kRequests << " requests\n";
    return EXIT_FAILURE;
  }
  std::cout << "OK: repeats were served from cache, bitwise-equal; registry "
               "metrics match the observed traffic\n";
  return EXIT_SUCCESS;
}
