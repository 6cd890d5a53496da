#pragma once
/// \file mechanism.hpp
/// The truthful-in-expectation mechanism of Section 5: fractional VCG on
/// the LP, Lavi-Swamy decomposition of x*/alpha, a random draw from the
/// decomposition, and payments scaled so the expected payment equals the
/// fractional VCG payment divided by alpha:
///     p_v(S) = p^f_v * b_v(S(v)) / bar{b}_v          (0 when bar{b}_v = 0),
/// which gives E[p_v] = p^f_v / alpha because E[b_v(S)] = bar{b}_v / alpha.

#include <cstdint>

#include "core/instance.hpp"
#include "mechanism/decomposition.hpp"
#include "mechanism/fractional_vcg.hpp"

namespace ssa {

struct MechanismOptions {
  bool use_colgen = false;  ///< force the demand-oracle LP path
  /// Largest k solved by explicit enumeration; beyond it the demand-oracle
  /// path is selected automatically (mirrors PipelineOptions). The explicit
  /// LP itself rejects k > kExplicitChannelLimit (12), so raising this past
  /// it surfaces that error instead of silently switching paths.
  int explicit_limit = kExplicitChannelLimit;
  DecompositionOptions decomposition = {};
  std::uint64_t sample_seed = 0xa11c;
};

struct MechanismOutcome {
  FractionalVcg vcg;
  Decomposition decomposition;
  /// Which LP path actually ran (the demand-oracle path is auto-selected
  /// when k exceeds MechanismOptions::explicit_limit).
  bool used_colgen = false;
  std::size_t sampled_index = 0;          ///< entry drawn from the distribution
  Allocation allocation;                  ///< the realized allocation
  std::vector<double> payments;           ///< realized payments
  std::vector<double> expected_payments;  ///< p^f_v / alpha
};

/// Runs the full mechanism on the reported instance. Prefer
/// `make_solver("mechanism")->solve(instance, options)` (api/api.hpp),
/// whose report carries this outcome as SolveReport::mechanism, unless you
/// need the raw payload. (The old deprecated run_mechanism entry point is
/// gone.)
[[nodiscard]] MechanismOutcome solve_mechanism(const AuctionInstance& instance,
                                               MechanismOptions options = {});

/// Expected utility of every bidder under \p true_instance when the
/// mechanism ran on (possibly misreported) valuations:
///     E[u_v] = sum_l lambda_l (true_b_v(S_l(v)) - p_v(S_l)).
[[nodiscard]] std::vector<double> expected_utilities(
    const MechanismOutcome& outcome, const AuctionInstance& true_instance,
    const AuctionInstance& reported_instance);

}  // namespace ssa
