#include "mechanism/mechanism.hpp"

#include <stdexcept>

#include "support/random.hpp"

namespace ssa {

namespace {
/// Realized payment of bidder v for allocation S under the scaled-VCG rule.
double payment_for(const FractionalVcg& vcg,
                   const AuctionInstance& reported_instance, std::size_t v,
                   const Allocation& allocation) {
  if (vcg.bidder_value[v] <= 1e-12) return 0.0;
  const Bundle bundle = allocation.bundles[v];
  if (bundle == kEmptyBundle) return 0.0;
  return vcg.payments[v] * reported_instance.value(v, bundle) /
         vcg.bidder_value[v];
}
}  // namespace

MechanismOutcome solve_mechanism(const AuctionInstance& instance,
                                 MechanismOptions options) {
  // Auto-select the demand-oracle path beyond the explicit-enumeration
  // limit (the explicit LP rejects k > kExplicitChannelLimit on its own).
  if (instance.num_channels() > options.explicit_limit) {
    options.use_colgen = true;
  }
  MechanismOutcome outcome;
  outcome.used_colgen = options.use_colgen;
  outcome.vcg = fractional_vcg(instance, options.use_colgen);
  outcome.decomposition = decompose_fractional(instance, outcome.vcg.optimum,
                                               options.decomposition);
  if (outcome.decomposition.entries.empty()) {
    throw std::runtime_error("solve_mechanism: empty decomposition");
  }

  // Draw an allocation.
  Rng rng(options.sample_seed);
  const double u = rng.uniform();
  double cumulative = 0.0;
  outcome.sampled_index = outcome.decomposition.entries.size() - 1;
  for (std::size_t l = 0; l < outcome.decomposition.entries.size(); ++l) {
    cumulative += outcome.decomposition.entries[l].probability;
    if (u < cumulative) {
      outcome.sampled_index = l;
      break;
    }
  }
  outcome.allocation =
      outcome.decomposition.entries[outcome.sampled_index].allocation;

  const std::size_t n = instance.num_bidders();
  outcome.payments.assign(n, 0.0);
  outcome.expected_payments.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    outcome.payments[v] =
        payment_for(outcome.vcg, instance, v, outcome.allocation);
    outcome.expected_payments[v] =
        outcome.vcg.payments[v] / outcome.decomposition.alpha;
  }
  return outcome;
}

std::vector<double> expected_utilities(const MechanismOutcome& outcome,
                                       const AuctionInstance& true_instance,
                                       const AuctionInstance& reported_instance) {
  const std::size_t n = true_instance.num_bidders();
  std::vector<double> utilities(n, 0.0);
  for (const DecompositionEntry& entry : outcome.decomposition.entries) {
    for (std::size_t v = 0; v < n; ++v) {
      const Bundle bundle = entry.allocation.bundles[v];
      if (bundle == kEmptyBundle) continue;
      const double value = true_instance.value(v, bundle);
      const double payment =
          payment_for(outcome.vcg, reported_instance, v, entry.allocation);
      utilities[v] += entry.probability * (value - payment);
    }
  }
  return utilities;
}

}  // namespace ssa
