// Experiment E14: the warm-start solve path on a perturbed stream.
//
// The serving workload this measures is churn-variant traffic: the same
// auction structure (graph, ordering, rho, valuation supports) arrives
// over and over with rescaled bundle values. Cold, every arrival pays a
// full two-phase simplex solve; warm, the optimal basis banked from the
// previous variant of the structure installs directly (values enter the
// explicit LP only through the objective) and the re-solve runs in a
// handful of pivots. Two phases:
//
//   e14/churn/*  -- S scenarios x V support-preserving variants, solved
//                   cold (no hint) and warm (per-structure BasisCache
//                   keyed by the structural fingerprint, exactly the
//                   service's key path). Reports per scenario: warm-hit
//                   rate, total pivots cold vs warm, the pivot ratio, and
//                   whether EVERY warm payload was bitwise identical to
//                   its cold twin (wire::reports_payload_equal) -- the
//                   warm path is a latency lever, never a result change.
//   BM_*         -- google-benchmark timings of one cold and one warm
//                   churn solve.
//
// The headline numbers are the MEDIAN pivot ratio and the MEDIAN cold/warm
// wall-clock ratio (summed solver wall time) across the churn scenarios;
// the verdict line prints both. The roadmap target is a wall-clock ratio
// >= 2x; it is reported, not asserted. Payload identity IS asserted: the
// binary exits 1 when any warm payload differs from its cold twin.
// SSA_E14_SCENARIOS / SSA_E14_VARIANTS shrink the grid for CI smoke.
// Every row lands in BENCH_bench_e14_warm_start.json via bench_util.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "core/auction_lp.hpp"
#include "gen/scenario.hpp"
#include "service/basis_cache.hpp"
#include "support/fingerprint.hpp"
#include "support/random.hpp"
#include "wire/codec.hpp"

namespace {

using namespace ssa;

std::size_t env_count(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long value = std::atol(env);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  return fallback;
}

/// Support-preserving churn: every positive bundle value of one bidder is
/// rescaled, zeros stay zero, so the structural fingerprint (and the LP's
/// column set) is unchanged while the objective moves.
AuctionInstance rescale_bidder(const AuctionInstance& instance, std::size_t v,
                               Rng& rng) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * rng.uniform(0.5, 2.0);
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

struct ChurnOutcome {
  double warm_rate = 0.0;
  long long cold_pivots = 0;
  long long warm_pivots = 0;
  bool payload_identical = true;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
};

/// Replays V churn variants of \p base through the unified API, cold and
/// warm, verifying payload identity on every pair.
ChurnOutcome run_churn_stream(const AuctionInstance& base,
                              std::size_t variants, std::uint64_t seed) {
  const auto solver = make_solver("lp-rounding");
  SolveOptions options;
  options.seed = 7;
  options.pipeline.rounding_repetitions = 8;

  service::BasisCache cache(64);
  Rng rng(seed);
  ChurnOutcome outcome;
  AuctionInstance churned = base;
  for (std::size_t i = 0; i < variants; ++i) {
    churned = rescale_bidder(churned, i % churned.num_bidders(), rng);

    const SolveReport cold = solver->solve(churned, options);
    outcome.cold_pivots += cold.pivots;
    outcome.cold_seconds += cold.wall_time_seconds;

    // The service's warm path: look the structure up by its structural
    // fingerprint, install the banked basis as a hint, re-bank the export.
    WarmStartContext context;
    service::BasisCacheEntry banked;
    const std::string key = structural_fingerprint(churned).hex();
    if (const service::BasisCacheEntry* entry = cache.lookup(key)) {
      banked = *entry;
      context.hint = &banked;
    }
    SolveOptions warm_options = options;
    warm_options.warm_context = &context;
    const SolveReport warm = solver->solve(churned, warm_options);
    outcome.warm_pivots += warm.pivots;
    outcome.warm_seconds += warm.wall_time_seconds;
    if (warm.warm_started) outcome.warm_rate += 1.0;
    if (!wire::reports_payload_equal(warm, cold)) {
      outcome.payload_identical = false;
    }
    if (!context.exported.empty()) {
      cache.insert(key, std::move(context.exported));
    }
  }
  if (variants > 0) {
    outcome.warm_rate /= static_cast<double>(variants);
  }
  return outcome;
}

/// Runs the churn grid; returns whether every warm payload matched its
/// cold twin.
bool churn_experiment(std::size_t scenarios, std::size_t variants) {
  Table table({"scenario", "n", "k", "warm rate", "pivots cold", "pivots warm",
               "ratio", "wall ratio", "payload=="});
  bool identical = true;
  std::vector<double> ratios;
  std::vector<double> wall_ratios;
  for (std::size_t s = 0; s < scenarios; ++s) {
    const std::size_t n = 16 + 4 * (s % 3);
    const int k = 2 + static_cast<int>(s % 2);
    const AuctionInstance base = gen::make_disk_auction(
        n, k, gen::ValuationMix::kMixed, 1400 + 31 * s);
    const ChurnOutcome outcome =
        run_churn_stream(base, variants, 9000 + 17 * s);
    const double ratio =
        outcome.warm_pivots > 0
            ? static_cast<double>(outcome.cold_pivots) /
                  static_cast<double>(outcome.warm_pivots)
            : static_cast<double>(outcome.cold_pivots + 1);
    const double wall_ratio = outcome.warm_seconds > 0.0
                                  ? outcome.cold_seconds / outcome.warm_seconds
                                  : 0.0;
    ratios.push_back(ratio);
    wall_ratios.push_back(wall_ratio);
    identical = identical && outcome.payload_identical;
    const std::string name = "e14/churn/s" + std::to_string(s);
    table.add_row({name, Table::integer(static_cast<long long>(n)),
                   Table::integer(k), Table::num(outcome.warm_rate, 2),
                   Table::integer(outcome.cold_pivots),
                   Table::integer(outcome.warm_pivots), Table::num(ratio, 2),
                   Table::num(wall_ratio, 2),
                   outcome.payload_identical ? "yes" : "NO"});
    bench::record(bench::BenchRecord{
        name, outcome.warm_seconds, 0.0, "lp-rounding",
        {{"variants", static_cast<double>(variants)},
         {"warm_rate", outcome.warm_rate},
         {"cold_pivots", static_cast<double>(outcome.cold_pivots)},
         {"warm_pivots", static_cast<double>(outcome.warm_pivots)},
         {"pivot_ratio", ratio},
         {"wall_ratio", wall_ratio},
         {"cold_seconds", outcome.cold_seconds},
         {"payload_identical", outcome.payload_identical ? 1.0 : 0.0}}});
  }
  const double median = bench::median(ratios);
  const double wall_median = bench::median(wall_ratios);
  bench::print_experiment(
      "E14: churn stream, cold vs warm-started explicit LP",
      table,
      "median pivot ratio (cold/warm) = " + Table::num(median, 2) +
          "; median wall-clock ratio = " + Table::num(wall_median, 2) +
          " (roadmap target >= 2x wall-clock, reported, not asserted)");
  bench::record(bench::BenchRecord{
      "e14/churn/median", 0.0, 0.0, "lp-rounding",
      {{"median_pivot_ratio", median},
       {"median_wall_ratio", wall_median}}});
  return identical;
}

const AuctionInstance& bm_instance() {
  static const AuctionInstance instance =
      gen::make_disk_auction(20, 3, gen::ValuationMix::kMixed, 77);
  return instance;
}

void BM_ColdLpSolve(benchmark::State& state) {
  const AuctionInstance& instance = bm_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_auction_lp(instance));
  }
}
BENCHMARK(BM_ColdLpSolve);

void BM_WarmLpSolve(benchmark::State& state) {
  const AuctionInstance& instance = bm_instance();
  LpWarmStart donor;
  lp::BasisSnapshot basis;
  donor.exported = &basis;
  (void)solve_auction_lp(instance, {}, &donor);
  for (auto _ : state) {
    LpWarmStart warm;
    warm.hint = &basis;
    benchmark::DoNotOptimize(solve_auction_lp(instance, {}, &warm));
  }
}
BENCHMARK(BM_WarmLpSolve);

}  // namespace

int main(int argc, char** argv) {
  bool identical = true;
  const int status = ssa::bench::run(argc, argv, [&] {
    identical = churn_experiment(env_count("SSA_E14_SCENARIOS", 6),
                                 env_count("SSA_E14_VARIANTS", 20));
  });
  return identical ? status : 1;
}
