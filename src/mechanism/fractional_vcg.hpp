#pragma once
/// \file fractional_vcg.hpp
/// Fractional VCG over the LP relaxation: the first ingredient of the
/// Lavi-Swamy construction (Section 5). Payments are the classical VCG
/// externalities computed on LP optima:
///     p^f_v = opt(LP without v) - (opt(LP) - bar{b}_v),
/// where bar{b}_v is v's value share in the LP optimum.

#include <vector>

#include "core/auction_lp.hpp"
#include "core/instance.hpp"

namespace ssa {

struct FractionalVcg {
  FractionalSolution optimum;        ///< x*
  std::vector<double> bidder_value;  ///< bar{b}_v = sum_T b_{v,T} x*_{v,T}
  std::vector<double> payments;      ///< p^f_v, clamped to >= 0
  /// Simplex pivots summed over all n+1 LP solves (the optimum plus one
  /// without-v LP per bidder). A run diagnostic, not serialized.
  long long pivots = 0;
};

/// Computes the fractional VCG outcome; \p use_colgen selects the
/// demand-oracle LP path (required when k > kExplicitChannelLimit).
[[nodiscard]] FractionalVcg fractional_vcg(const AuctionInstance& instance,
                                           bool use_colgen = false);

}  // namespace ssa
