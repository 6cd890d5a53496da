#pragma once
/// \file decomposition.hpp
/// Lavi-Swamy convex decomposition (Section 5): writes x*/alpha as a
/// probability distribution over feasible integral allocations.
///
/// The master is the phase-1 style equality LP
///     min  sum_c (s+_c + s-_c)
///     s.t. sum_l lambda_l chi_l(c) + s+_c - s-_c = x*_c / alpha   (c in supp x*)
///          sum_l lambda_l = 1,   lambda, s >= 0,
/// solved by column generation through lp/benders.hpp's loop. The
/// pricing problem -- find an integral allocation maximizing the dual
/// weights -- is answered by the paper's own rounding algorithm run on x*
/// with the dual weights as valuations (it verifies the integrality gap
/// alpha), backed on small instances by the exact solver.

#include <cstdint>

#include "core/auction_lp.hpp"
#include "core/instance.hpp"
#include "core/rounding.hpp"

namespace ssa {

struct DecompositionOptions {
  double alpha = 0.0;        ///< 0 = default_alpha (core/rounding.hpp)
  int rounding_repetitions = 96;  ///< Monte-Carlo pricing attempts per round
  int max_rounds = 300;      ///< oracle calls (lp::BendersOptions::max_rounds)
  bool use_exact_pricing = true;  ///< allow exact B&B pricing on small cases
  std::uint64_t seed = 0x5eed;
};

struct DecompositionEntry {
  Allocation allocation;
  double probability = 0.0;
};

struct Decomposition {
  std::vector<DecompositionEntry> entries;
  double alpha = 1.0;
  /// Final master objective = total absolute mismatch between
  /// sum_l lambda_l chi_l and x*/alpha (0 for a perfect decomposition).
  double residual = 0.0;
  /// Allocation columns the oracle generated; rounds equals it (one
  /// column per pricing round that found an improving allocation).
  int rounds = 0;
  int columns_generated = 0;
  /// Simplex pivots the master LP engine spent across all restarts. A run
  /// diagnostic, not serialized.
  long long pivots = 0;
};

/// Decomposes x*/alpha into a distribution over feasible allocations.
[[nodiscard]] Decomposition decompose_fractional(
    const AuctionInstance& instance, const FractionalSolution& fractional,
    DecompositionOptions options = {});

}  // namespace ssa
