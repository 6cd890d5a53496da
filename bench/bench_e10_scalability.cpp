// Experiment E10: wall-clock scalability of the full pipeline (conflict
// graph build, rho verification, LP solve, column generation, rounding) as
// n and k grow, on disk-graph auctions. The rounding column times what a
// service worker pays per lp-rounding request: 64 best-of passes (median
// of 5), next to the explicit LP it rounds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "core/rounding.hpp"
#include "gen/scenario.hpp"
#include "support/random.hpp"

namespace {

using namespace ssa;

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

void experiment_table() {
  Table table({"n", "k", "graph+rho [ms]", "LP explicit [ms]",
               "LP colgen [ms]", "round x64 [ms]", "solver e2e [ms]",
               "b*"});
  const auto solver = make_solver("lp-rounding");
  SolveOptions options;
  options.pipeline.rounding_repetitions = 32;
  double min_share = 1.0;
  double max_share = 0.0;
  for (const std::size_t n : {40u, 80u, 160u, 240u, 480u, 1000u}) {
    for (const int k : {2, 4}) {
      double build_s = 0.0;
      double lp_value = 0.0;
      AuctionInstance instance = [&] {
        const auto start = std::chrono::steady_clock::now();
        AuctionInstance built = gen::make_disk_auction(
            n, k, gen::ValuationMix::kMixed, 3 * n + static_cast<std::size_t>(k));
        build_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        return built;
      }();
      FractionalSolution lp;
      const double explicit_s =
          seconds_of([&] { lp = solve_auction_lp(instance); });
      lp_value = lp.objective;
      const double colgen_s =
          seconds_of([&] { (void)solve_auction_lp_colgen(instance); });
      // The service's rounding: PipelineOptions::rounding_repetitions = 64.
      std::vector<double> round_samples;
      for (int repeat = 0; repeat < 5; ++repeat) {
        round_samples.push_back(
            seconds_of([&] { (void)best_of_rounds(instance, lp, 64, 1); }));
      }
      const double round_s = bench::median(round_samples);
      const double share = round_s / (explicit_s + round_s);
      min_share = std::min(min_share, share);
      max_share = std::max(max_share, share);
      // End-to-end through the unified API (LP choice + rounding + report).
      const SolveReport report = solver->solve(instance, options);
      table.add_row({Table::integer(static_cast<long long>(n)),
                     Table::integer(k), Table::num(1e3 * build_s, 2),
                     Table::num(1e3 * explicit_s, 2),
                     Table::num(1e3 * colgen_s, 2),
                     Table::num(1e3 * round_s, 2),
                     Table::num(1e3 * report.wall_time_seconds, 2),
                     Table::num(lp_value, 1)});
      bench::record_report(
          "e10/n=" + std::to_string(n) + "/k=" + std::to_string(k), report,
          {{"lp_upper_bound", lp_value},
           {"lp_explicit_seconds", explicit_s},
           {"lp_colgen_seconds", colgen_s},
           {"round_seconds", round_s}});
    }
  }
  bench::print_experiment(
      "E10: end-to-end scalability (disk-graph auctions)", table,
      "VERDICT: 64 rounding passes take " +
          Table::num(100.0 * min_share, 0) + "-" +
          Table::num(100.0 * max_share, 0) +
          "% of explicit LP + rounding; explicit enumeration is competitive "
          "for small k, while column generation is the only option beyond "
          "k = 12 (see E6b)");
}

void bm_end_to_end(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const AuctionInstance instance =
      gen::make_disk_auction(n, 2, gen::ValuationMix::kMixed, 7);
  const auto solver = make_solver("lp-rounding");
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver->solve(instance, options));
  }
}
BENCHMARK(bm_end_to_end)->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ssa::bench::run(argc, argv, experiment_table);
}
