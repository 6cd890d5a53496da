// Experiment E7 (Section 5): the Lavi-Swamy truthful-in-expectation
// mechanism, run through the unified "mechanism" solver. Reports the
// decomposition size and residual, the expected welfare of the random
// allocation against the b*/alpha target, and a misreport sweep measuring
// the expected-utility delta of deviating bidders (truthfulness predicts no
// positive delta).

#include <benchmark/benchmark.h>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "gen/scenario.hpp"
#include "mechanism/mechanism.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace {

using namespace ssa;

MechanismOutcome registry_mechanism(const AuctionInstance& instance,
                                 std::uint64_t seed = 1) {
  SolveOptions options;
  options.seed = seed;
  return *make_solver("mechanism")->solve(instance, options).mechanism;
}

void decomposition_table() {
  Table table({"n", "k", "alpha", "b*", "E[welfare]", "b*/alpha",
               "#allocations", "residual"});
  for (const std::size_t n : {6u, 8u, 10u}) {
    for (const int k : {1, 2}) {
      const AuctionInstance instance = gen::make_disk_auction(
          n, k, gen::ValuationMix::kMixed, 33 * n + static_cast<std::size_t>(k));
      const SolveReport report = make_solver("mechanism")->solve(instance);
      const Decomposition& decomposition = report.mechanism->decomposition;
      double expected_welfare = 0.0;
      for (const DecompositionEntry& entry : decomposition.entries) {
        expected_welfare += entry.probability * instance.welfare(entry.allocation);
      }
      table.add_row({Table::integer(static_cast<long long>(n)),
                     Table::integer(k), Table::num(decomposition.alpha, 2),
                     Table::num(*report.lp_upper_bound, 2),
                     Table::num(expected_welfare, 3),
                     Table::num(report.guarantee, 3),
                     Table::integer(static_cast<long long>(
                         decomposition.entries.size())),
                     Table::num(decomposition.residual, 8)});
      // The mechanism path lands in the perf trajectory like every other
      // solve (BENCH_bench_e7_mechanism.json via the shared helper).
      bench::record_report(
          "e7/n=" + std::to_string(n) + "/k=" + std::to_string(k), report,
          {{"lp_upper_bound", *report.lp_upper_bound},
           {"expected_welfare", expected_welfare},
           {"decomposition_entries",
            static_cast<double>(decomposition.entries.size())},
           {"decomposition_residual", decomposition.residual}});
    }
  }
  bench::print_experiment(
      "E7a / Section 5: Lavi-Swamy decomposition of x*/alpha", table,
      "VERDICT: residual ~ 0 (exact convex decomposition) and E[welfare] = "
      "b*/alpha (the SolveReport guarantee) as the construction requires");
}

void truthfulness_table() {
  Table table({"seed", "bidder", "misreport", "E[u] truthful", "E[u] misreport",
               "gain"});
  double max_gain = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const AuctionInstance truth =
        gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 900 + seed);
    const MechanismOutcome truthful_outcome = registry_mechanism(truth);
    const std::vector<double> truthful_utility =
        expected_utilities(truthful_outcome, truth, truth);
    for (const std::size_t v : {0u, 3u, 6u}) {
      for (const double factor : {0.25, 4.0}) {
        std::vector<double> scaled(num_bundles(truth.num_channels()), 0.0);
        for (Bundle t = 1; t < num_bundles(truth.num_channels()); ++t) {
          scaled[t] = factor * truth.value(v, t);
        }
        const AuctionInstance reported = truth.with_valuation(
            v, std::make_shared<ExplicitValuation>(truth.num_channels(),
                                                   std::move(scaled)));
        const MechanismOutcome lie_outcome = registry_mechanism(reported);
        const std::vector<double> lie_utility =
            expected_utilities(lie_outcome, truth, reported);
        const double gain = lie_utility[v] - truthful_utility[v];
        max_gain = std::max(max_gain, gain);
        std::string misreport = "x";
        misreport += Table::num(factor, 2);
        table.add_row({Table::integer(static_cast<long long>(seed)),
                       Table::integer(static_cast<long long>(v)), misreport,
                       Table::num(truthful_utility[v], 4),
                       Table::num(lie_utility[v], 4), Table::num(gain, 5)});
      }
    }
  }
  bench::print_experiment(
      "E7b / Section 5: misreport sweep (truthfulness in expectation)", table,
      max_gain <= 1e-3
          ? "VERDICT: no bidder gains by misreporting (max gain " +
                Table::num(max_gain, 6) + ")"
          : "VERDICT: POSITIVE deviation gain found: " + Table::num(max_gain, 6));
  bench::record({"e7/misreport_sweep", 0.0, 0.0, "mechanism",
                 {{"max_misreport_gain", max_gain}}});
}

void bm_mechanism(benchmark::State& state) {
  const AuctionInstance instance = gen::make_disk_auction(
      static_cast<std::size_t>(state.range(0)), 2, gen::ValuationMix::kMixed, 3);
  const auto solver = make_solver("mechanism");
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver->solve(instance));
  }
}
BENCHMARK(bm_mechanism)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ssa::bench::run(argc, argv, [] {
    decomposition_table();
    truthfulness_table();
  });
}
