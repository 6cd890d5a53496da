// "eBay in the Sky" scenario (the paper's motivation, after [33]): a
// regional secondary spectrum market. A metro area has clustered base
// stations (hot spots), 6 idle licensed channels, and heterogeneous
// bidders: carriers that aggregate channels (additive with budget caps),
// IoT operators that need exactly one channel (unit demand), and a
// broadcaster that needs a specific pair (single minded).
//
// The market runs the demand-oracle column-generation LP (Section 2.2) --
// no bidder enumerates its 2^k bundle values -- followed by Algorithm 1,
// through the unified Solver API; a solve_batch at the end compares the
// paper's pipeline against the heuristic baselines on the same instance.

#include <iostream>

#include "api/api.hpp"
#include "gen/scenario.hpp"
#include "models/transmitter.hpp"
#include "support/random.hpp"
#include "support/table.hpp"

int main() {
  using namespace ssa;
  Rng rng(20260610);

  // Metro area: 48 base stations in 5 hot spots.
  const auto stations = gen::clustered_transmitters(
      /*n=*/48, /*area=*/60.0, /*radius_min=*/1.5, /*radius_max=*/4.0,
      /*clusters=*/5, /*spread=*/4.0, rng);
  ModelGraph model = disk_graph(stations);

  const int k = 6;
  std::vector<ValuationPtr> bids;
  std::vector<std::string> kind;
  for (std::size_t v = 0; v < stations.size(); ++v) {
    switch (v % 3) {
      case 0: {  // carrier: additive values capped by a budget
        std::vector<double> values;
        double total = 0.0;
        for (int j = 0; j < k; ++j) {
          values.push_back(rng.uniform(10.0, 40.0));
          total += values.back();
        }
        bids.push_back(std::make_shared<BudgetAdditiveValuation>(
            std::move(values), 0.6 * total));
        kind.emplace_back("carrier");
        break;
      }
      case 1: {  // IoT operator: any single channel
        std::vector<double> values;
        for (int j = 0; j < k; ++j) values.push_back(rng.uniform(15.0, 30.0));
        bids.push_back(std::make_shared<UnitDemandValuation>(std::move(values)));
        kind.emplace_back("iot");
        break;
      }
      default: {  // broadcaster: a specific channel pair
        const int a = static_cast<int>(rng.uniform_int(k));
        int b = static_cast<int>(rng.uniform_int(k));
        if (b == a) b = (b + 1) % k;
        bids.push_back(std::make_shared<SingleMindedValuation>(
            k, (1u << a) | (1u << b), rng.uniform(40.0, 90.0)));
        kind.emplace_back("broadcast");
        break;
      }
    }
  }

  const AuctionInstance market(std::move(model.graph), std::move(model.order),
                               k, std::move(bids));
  std::cout << "Secondary spectrum market: " << market.num_bidders()
            << " bidders, " << k << " channels, "
            << market.graph().num_conflicts() << " interference conflicts, "
            << "rho(pi) = " << market.rho() << "\n\n";

  SolveOptions options;
  options.seed = 7;
  options.pipeline.rounding_repetitions = 128;
  options.pipeline.force_column_generation = true;  // bidders stay oracles
  const SolveReport report = make_solver("lp-rounding")->solve(market, options);
  const Allocation& allocation = report.allocation;
  std::cout << "LP (demand oracles): b* = " << *report.lp_upper_bound << " ["
            << report.params << "]\n";
  std::cout << "Allocation welfare: " << report.welfare
            << "  (winners: " << allocation.winners() << "/"
            << market.num_bidders()
            << ", proven guarantee >= " << report.guarantee << ")\n\n";

  Table table({"bidder", "type", "channels won", "value"});
  for (std::size_t v = 0; v < market.num_bidders(); ++v) {
    if (allocation.bundles[v] == kEmptyBundle) continue;
    std::string channels;
    for (int j = 0; j < k; ++j) {
      if (bundle_has(allocation.bundles[v], j)) {
        if (!channels.empty()) channels += ',';
        channels += std::to_string(j);
      }
    }
    table.add_row({Table::integer(static_cast<long long>(v)), kind[v], channels,
                   Table::num(market.value(v, allocation.bundles[v]), 1)});
  }
  table.print(std::cout, "winning assignments");

  // How do the baselines fare on the very same market? One batch call
  // replaces a hand-written comparison loop.
  const std::vector<LabelledInstance> instances = {{"metro", &market}};
  const std::vector<std::string> solvers = {
      "lp-rounding", "greedy-value", "greedy-density",
      "local-ratio-per-channel"};
  const BatchResult comparison =
      solve_batch(cross_jobs(instances, solvers, options));
  std::cout << "\n";
  comparison.table().print(std::cout, "algorithm comparison (solve_batch)");
  return 0;
}
