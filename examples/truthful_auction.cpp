// Truthful-in-expectation spectrum auction (Section 5): runs the full
// Lavi-Swamy mechanism -- fractional VCG, convex decomposition of
// x*/alpha, a random draw, and scaled payments -- and then demonstrates
// empirically that a bidder cannot improve its expected utility by
// misreporting.

#include <iostream>

#include "api/api.hpp"
#include "gen/scenario.hpp"
#include "support/table.hpp"

int main() {
  using namespace ssa;

  const AuctionInstance truth =
      gen::make_disk_auction(/*n=*/9, /*k=*/2, gen::ValuationMix::kMixed,
                             /*seed=*/20110604);  // SPAA'11 week
  std::cout << "Truthful auction: " << truth.num_bidders() << " bidders, "
            << truth.num_channels() << " channels, rho(pi) = " << truth.rho()
            << "\n";

  const auto mechanism = make_solver("mechanism");
  SolveOptions options;
  options.seed = 0xa11c;
  const SolveReport report = mechanism->solve(truth, options);
  const MechanismOutcome& outcome = *report.mechanism;
  std::cout << "fractional optimum b*    = " << outcome.vcg.optimum.objective
            << "\nalpha (integrality gap)  = " << outcome.decomposition.alpha
            << "\ndecomposition size       = "
            << outcome.decomposition.entries.size()
            << "\ndecomposition residual   = " << outcome.decomposition.residual
            << "\nE[welfare] guarantee     = " << report.guarantee
            << " (= b*/alpha)\n\n";

  Table table({"bidder", "channels won", "value", "payment", "E[payment]"});
  const int k = truth.num_channels();
  for (std::size_t v = 0; v < truth.num_bidders(); ++v) {
    std::string channels = "-";
    if (outcome.allocation.bundles[v] != kEmptyBundle) {
      channels.clear();
      for (int j = 0; j < k; ++j) {
        if (bundle_has(outcome.allocation.bundles[v], j)) {
          if (!channels.empty()) channels += ',';
          channels += std::to_string(j);
        }
      }
    }
    table.add_row({Table::integer(static_cast<long long>(v)), channels,
                   Table::num(truth.value(v, outcome.allocation.bundles[v]), 2),
                   Table::num(outcome.payments[v], 2),
                   Table::num(outcome.expected_payments[v], 2)});
  }
  table.print(std::cout, "sampled allocation and payments");

  // Misreport demonstration for bidder 0.
  const std::vector<double> honest =
      expected_utilities(outcome, truth, truth);
  std::cout << "\nbidder 0 expected utility (truthful): " << honest[0] << "\n";
  for (const double factor : {0.2, 5.0}) {
    std::vector<double> scaled(num_bundles(k), 0.0);
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      scaled[t] = factor * truth.value(0, t);
    }
    const AuctionInstance reported = truth.with_valuation(
        0, std::make_shared<ExplicitValuation>(k, std::move(scaled)));
    const MechanismOutcome lie = *mechanism->solve(reported, options).mechanism;
    const std::vector<double> lied = expected_utilities(lie, truth, reported);
    std::cout << "bidder 0 expected utility (bids x" << factor
              << "):  " << lied[0]
              << (lied[0] <= honest[0] + 1e-6 ? "  (no gain)" : "  (GAIN!)")
              << "\n";
  }
  return 0;
}
