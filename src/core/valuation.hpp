#pragma once
/// \file valuation.hpp
/// Bidder valuations b_{v,T} and demand oracles (Section 2.2). Valuations
/// are arbitrary set functions with value(empty) = 0 -- monotonicity is NOT
/// assumed, exactly as in the paper. The demand oracle answers
///     argmax_T  value(T) - sum_{j in T} prices[j],
/// which is also the pricing problem of the column-generation LP solver.

#include <memory>
#include <span>
#include <vector>

#include "core/bundle.hpp"

namespace ssa {

/// Result of a demand query.
struct DemandResult {
  Bundle bundle = kEmptyBundle;  ///< utility-maximizing bundle
  double utility = 0.0;          ///< its utility (>= 0: empty set is allowed)
};

/// Abstract valuation over bundles of k channels.
class Valuation {
 public:
  explicit Valuation(int num_channels);
  virtual ~Valuation() = default;

  [[nodiscard]] int num_channels() const noexcept { return k_; }

  /// b_{v,T}; implementations must return 0 for the empty bundle and only
  /// non-negative values.
  [[nodiscard]] virtual double value(Bundle bundle) const = 0;

  /// Exact demand oracle. The default enumerates all 2^k bundles
  /// (k <= kEnumerationChannelLimit); structured subclasses override with
  /// closed forms.
  [[nodiscard]] virtual DemandResult demand(std::span<const double> prices) const;

  /// Largest value over all bundles (used for search bounds). Default
  /// enumerates; subclasses with closed forms override.
  [[nodiscard]] virtual double max_value() const;

 protected:
  int k_;
};

using ValuationPtr = std::shared_ptr<const Valuation>;

/// Table-based valuation: an explicit value for each of the 2^k bundles.
/// The only class that can express non-monotone valuations directly.
class ExplicitValuation final : public Valuation {
 public:
  /// \p values has 2^k entries indexed by bundle; values[0] must be 0.
  ExplicitValuation(int num_channels, std::vector<double> values);

  [[nodiscard]] double value(Bundle bundle) const override;

  /// Defining data, exposed for serialization (wire/instance_codec.hpp):
  /// the 2^k-entry value table.
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
};

/// Additive: value(T) = sum of per-channel values. Demand in O(k).
class AdditiveValuation final : public Valuation {
 public:
  explicit AdditiveValuation(std::vector<double> channel_values);

  [[nodiscard]] double value(Bundle bundle) const override;
  [[nodiscard]] DemandResult demand(std::span<const double> prices) const override;
  [[nodiscard]] double max_value() const override;

  /// Defining data, exposed for serialization (wire/instance_codec.hpp).
  [[nodiscard]] const std::vector<double>& channel_values() const noexcept {
    return channel_values_;
  }

 private:
  std::vector<double> channel_values_;
};

/// Unit demand: value(T) = max over channels in T. Demand in O(k).
class UnitDemandValuation final : public Valuation {
 public:
  explicit UnitDemandValuation(std::vector<double> channel_values);

  [[nodiscard]] double value(Bundle bundle) const override;
  [[nodiscard]] DemandResult demand(std::span<const double> prices) const override;
  [[nodiscard]] double max_value() const override;

  /// Defining data, exposed for serialization (wire/instance_codec.hpp).
  [[nodiscard]] const std::vector<double>& channel_values() const noexcept {
    return channel_values_;
  }

 private:
  std::vector<double> channel_values_;
};

/// Single minded: positive value only on supersets of one target bundle.
class SingleMindedValuation final : public Valuation {
 public:
  SingleMindedValuation(int num_channels, Bundle target, double target_value);

  [[nodiscard]] double value(Bundle bundle) const override;
  [[nodiscard]] DemandResult demand(std::span<const double> prices) const override;
  [[nodiscard]] double max_value() const override;

  /// Defining data, exposed for serialization (wire/instance_codec.hpp).
  [[nodiscard]] Bundle target() const noexcept { return target_; }
  [[nodiscard]] double target_value() const noexcept { return target_value_; }

 private:
  Bundle target_;
  double target_value_;
};

/// Budget additive: value(T) = min(budget, sum of channel values). A
/// canonical submodular class; demand enumerates (no closed form).
class BudgetAdditiveValuation final : public Valuation {
 public:
  BudgetAdditiveValuation(std::vector<double> channel_values, double budget);

  [[nodiscard]] double value(Bundle bundle) const override;
  [[nodiscard]] double max_value() const override;

  /// Defining data, exposed for serialization (wire/instance_codec.hpp).
  [[nodiscard]] const std::vector<double>& channel_values() const noexcept {
    return channel_values_;
  }
  [[nodiscard]] double budget() const noexcept { return budget_; }

 private:
  std::vector<double> channel_values_;
  double budget_;
};

/// XOR bidding language: a list of atomic bids (bundle, value); the value
/// of T is the maximum value of an atom contained in T. The standard
/// compact language for combinatorial auctions; demand enumerates atoms.
class XorValuation final : public Valuation {
 public:
  struct Atom {
    Bundle bundle = kEmptyBundle;
    double value = 0.0;
  };

  XorValuation(int num_channels, std::vector<Atom> atoms);

  [[nodiscard]] double value(Bundle bundle) const override;
  [[nodiscard]] DemandResult demand(std::span<const double> prices) const override;
  [[nodiscard]] double max_value() const override;

  /// Defining data, exposed for serialization (wire/instance_codec.hpp).
  [[nodiscard]] const std::vector<Atom>& atoms() const noexcept {
    return atoms_;
  }

 private:
  std::vector<Atom> atoms_;
};

/// Weighted coverage: channel j covers a set of ground elements; the value
/// of T is the total weight of elements covered by any channel of T.
/// Submodular and monotone; models overlapping spectrum usefulness.
class CoverageValuation final : public Valuation {
 public:
  /// element_weights: weight per ground element; coverage[j] lists the
  /// elements channel j covers.
  CoverageValuation(std::vector<double> element_weights,
                    std::vector<std::vector<int>> coverage);

  [[nodiscard]] double value(Bundle bundle) const override;
  /// Coverage is monotone, so the maximum is the full bundle: one O(k *
  /// elements) evaluation instead of the default 2^k enumeration.
  [[nodiscard]] double max_value() const override;

  /// Defining data, exposed for serialization (wire/instance_codec.hpp).
  [[nodiscard]] const std::vector<double>& element_weights() const noexcept {
    return element_weights_;
  }
  [[nodiscard]] const std::vector<std::vector<int>>& coverage() const noexcept {
    return coverage_;
  }

 private:
  std::vector<double> element_weights_;
  std::vector<std::vector<int>> coverage_;
};

}  // namespace ssa
