#include "core/valuation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ssa {

Valuation::Valuation(int num_channels) : k_(num_channels) {
  if (num_channels < 1 || num_channels > kMaxChannels) {
    throw std::invalid_argument("Valuation: bad channel count");
  }
}

DemandResult Valuation::demand(std::span<const double> prices) const {
  if (static_cast<int>(prices.size()) != k_) {
    throw std::invalid_argument("Valuation::demand: price vector size");
  }
  if (k_ > kEnumerationChannelLimit) {
    throw std::invalid_argument(
        "Valuation::demand: default enumeration limited to k <= " +
        std::to_string(kEnumerationChannelLimit));
  }
  DemandResult best;  // empty bundle, utility 0
  for (Bundle t = 1; t < num_bundles(k_); ++t) {
    double utility = value(t);
    for (int j = 0; j < k_; ++j) {
      if (bundle_has(t, j)) utility -= prices[j];
    }
    if (utility > best.utility) best = DemandResult{t, utility};
  }
  return best;
}

double Valuation::max_value() const {
  const std::vector<double> zero_prices(static_cast<std::size_t>(k_), 0.0);
  return demand(zero_prices).utility;
}

ExplicitValuation::ExplicitValuation(int num_channels,
                                     std::vector<double> values)
    : Valuation(num_channels), values_(std::move(values)) {
  if (values_.size() != num_bundles(k_)) {
    throw std::invalid_argument("ExplicitValuation: table size != 2^k");
  }
  if (values_[0] != 0.0) {
    throw std::invalid_argument("ExplicitValuation: value(empty) must be 0");
  }
  for (double v : values_) {
    if (v < 0.0) throw std::invalid_argument("ExplicitValuation: negative value");
  }
}

double ExplicitValuation::value(Bundle bundle) const {
  return values_.at(bundle);
}

AdditiveValuation::AdditiveValuation(std::vector<double> channel_values)
    : Valuation(static_cast<int>(channel_values.size())),
      channel_values_(std::move(channel_values)) {
  for (double v : channel_values_) {
    if (v < 0.0) throw std::invalid_argument("AdditiveValuation: negative value");
  }
}

double AdditiveValuation::value(Bundle bundle) const {
  double total = 0.0;
  for (int j = 0; j < k_; ++j) {
    if (bundle_has(bundle, j)) total += channel_values_[static_cast<std::size_t>(j)];
  }
  return total;
}

DemandResult AdditiveValuation::demand(std::span<const double> prices) const {
  DemandResult result;
  for (int j = 0; j < k_; ++j) {
    const double gain = channel_values_[static_cast<std::size_t>(j)] - prices[j];
    if (gain > 0.0) {
      result.bundle |= (1u << j);
      result.utility += gain;
    }
  }
  return result;
}

double AdditiveValuation::max_value() const {
  double total = 0.0;
  for (double v : channel_values_) total += v;
  return total;
}

UnitDemandValuation::UnitDemandValuation(std::vector<double> channel_values)
    : Valuation(static_cast<int>(channel_values.size())),
      channel_values_(std::move(channel_values)) {
  for (double v : channel_values_) {
    if (v < 0.0) throw std::invalid_argument("UnitDemandValuation: negative value");
  }
}

double UnitDemandValuation::value(Bundle bundle) const {
  double best = 0.0;
  for (int j = 0; j < k_; ++j) {
    if (bundle_has(bundle, j)) {
      best = std::max(best, channel_values_[static_cast<std::size_t>(j)]);
    }
  }
  return best;
}

DemandResult UnitDemandValuation::demand(std::span<const double> prices) const {
  DemandResult best;  // taking nothing is always available
  for (int j = 0; j < k_; ++j) {
    const double utility = channel_values_[static_cast<std::size_t>(j)] - prices[j];
    if (utility > best.utility) best = DemandResult{1u << j, utility};
  }
  return best;
}

double UnitDemandValuation::max_value() const {
  return *std::max_element(channel_values_.begin(), channel_values_.end());
}

SingleMindedValuation::SingleMindedValuation(int num_channels, Bundle target,
                                             double target_value)
    : Valuation(num_channels), target_(target), target_value_(target_value) {
  if (target == kEmptyBundle || target >= num_bundles(k_)) {
    throw std::invalid_argument("SingleMindedValuation: bad target bundle");
  }
  if (target_value < 0.0) {
    throw std::invalid_argument("SingleMindedValuation: negative value");
  }
}

double SingleMindedValuation::value(Bundle bundle) const {
  return (bundle & target_) == target_ ? target_value_ : 0.0;
}

DemandResult SingleMindedValuation::demand(std::span<const double> prices) const {
  double cost = 0.0;
  for (int j = 0; j < k_; ++j) {
    if (bundle_has(target_, j)) cost += prices[j];
  }
  const double utility = target_value_ - cost;
  if (utility > 0.0) return DemandResult{target_, utility};
  return DemandResult{};
}

double SingleMindedValuation::max_value() const { return target_value_; }

BudgetAdditiveValuation::BudgetAdditiveValuation(
    std::vector<double> channel_values, double budget)
    : Valuation(static_cast<int>(channel_values.size())),
      channel_values_(std::move(channel_values)),
      budget_(budget) {
  if (budget < 0.0) {
    throw std::invalid_argument("BudgetAdditiveValuation: negative budget");
  }
  for (double v : channel_values_) {
    if (v < 0.0) {
      throw std::invalid_argument("BudgetAdditiveValuation: negative value");
    }
  }
}

double BudgetAdditiveValuation::value(Bundle bundle) const {
  double total = 0.0;
  for (int j = 0; j < k_; ++j) {
    if (bundle_has(bundle, j)) total += channel_values_[static_cast<std::size_t>(j)];
  }
  return std::min(total, budget_);
}

double BudgetAdditiveValuation::max_value() const {
  double total = 0.0;
  for (double v : channel_values_) total += v;
  return std::min(total, budget_);
}

XorValuation::XorValuation(int num_channels, std::vector<Atom> atoms)
    : Valuation(num_channels), atoms_(std::move(atoms)) {
  for (const Atom& atom : atoms_) {
    if (atom.bundle == kEmptyBundle || atom.bundle >= num_bundles(k_)) {
      throw std::invalid_argument("XorValuation: bad atom bundle");
    }
    if (atom.value < 0.0) {
      throw std::invalid_argument("XorValuation: negative atom value");
    }
  }
}

double XorValuation::value(Bundle bundle) const {
  double best = 0.0;
  for (const Atom& atom : atoms_) {
    if ((bundle & atom.bundle) == atom.bundle) best = std::max(best, atom.value);
  }
  return best;
}

DemandResult XorValuation::demand(std::span<const double> prices) const {
  // With non-negative prices the optimal demand is an atom's bundle
  // exactly: extra channels only add price and the value is set by the
  // best contained atom. Negative prices (never produced by the LP duals,
  // which are duals of <= rows) fall back to full enumeration.
  for (double p : prices) {
    if (p < 0.0) return Valuation::demand(prices);
  }
  DemandResult best;
  for (const Atom& atom : atoms_) {
    double utility = atom.value;
    for (int j = 0; j < k_; ++j) {
      if (bundle_has(atom.bundle, j)) utility -= prices[j];
    }
    if (utility > best.utility) best = DemandResult{atom.bundle, utility};
  }
  return best;
}

double XorValuation::max_value() const {
  double best = 0.0;
  for (const Atom& atom : atoms_) best = std::max(best, atom.value);
  return best;
}

CoverageValuation::CoverageValuation(std::vector<double> element_weights,
                                     std::vector<std::vector<int>> coverage)
    : Valuation(static_cast<int>(coverage.size())),
      element_weights_(std::move(element_weights)),
      coverage_(std::move(coverage)) {
  for (double w : element_weights_) {
    if (w < 0.0) throw std::invalid_argument("CoverageValuation: negative weight");
  }
  for (const auto& covered : coverage_) {
    for (int element : covered) {
      if (element < 0 ||
          static_cast<std::size_t>(element) >= element_weights_.size()) {
        throw std::out_of_range("CoverageValuation: element out of range");
      }
    }
  }
}

double CoverageValuation::value(Bundle bundle) const {
  std::vector<bool> covered(element_weights_.size(), false);
  for (int j = 0; j < k_; ++j) {
    if (!bundle_has(bundle, j)) continue;
    for (int element : coverage_[static_cast<std::size_t>(j)]) {
      covered[static_cast<std::size_t>(element)] = true;
    }
  }
  double total = 0.0;
  for (std::size_t e = 0; e < covered.size(); ++e) {
    if (covered[e]) total += element_weights_[e];
  }
  return total;
}

double CoverageValuation::max_value() const {
  return value(static_cast<Bundle>(num_bundles(k_) - 1));
}

}  // namespace ssa
