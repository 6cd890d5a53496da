#pragma once
/// \file pipeline.hpp
/// The LP + rounding algorithm body: solve the LP relaxation (choosing the
/// explicit or the demand-oracle path automatically), round it with the
/// right algorithm for the instance (Algorithm 1, or 2 + 3), and report
/// what happened. Downstream callers reach this through the registry as
/// make_solver("lp-rounding") (api/api.hpp) or through the AuctionService;
/// solve_pipeline is the internal engine behind that adapter. The old
/// deprecated run_auction entry point is gone.

#include <cstdint>

#include "core/auction_lp.hpp"
#include "core/instance.hpp"

namespace ssa {

struct PipelineOptions {
  int rounding_repetitions = 64;  ///< Monte-Carlo passes (best is kept)
  bool derandomize = false;       ///< add a pairwise-independent sweep
  std::uint64_t seed = 1;
  /// Force the demand-oracle LP even for small k (0 = auto: colgen iff
  /// k > explicit_limit).
  bool force_column_generation = false;
  int explicit_limit = 10;  ///< largest k solved by explicit enumeration
  /// Soft wall-time target in seconds (0 = unlimited), enforced
  /// cooperatively: the LP polls it between simplex pivots and the
  /// rounding loop between repetitions. An exhausted budget truncates the
  /// run and sets PipelineResult::timed_out instead of failing silently.
  double time_budget_seconds = 0.0;
  /// Warm-start side channel for the explicit LP path (null = cold).
  /// Runtime-only: never serialized, never part of a cache key -- safe
  /// precisely because the payload is warm/cold-invariant (lp/simplex.hpp).
  /// Ignored by the column-generation path, which has no stable structural
  /// column numbering to key a basis on.
  LpWarmStart* warm = nullptr;
};

struct PipelineResult {
  FractionalSolution fractional;  ///< LP optimum (upper bound on welfare)
  Allocation allocation;          ///< feasible allocation
  double welfare = 0.0;
  double guarantee = 0.0;  ///< the proven lower bound b*/factor for this run
  /// The paper's worst-case factor for this instance: 8 sqrt(k) rho
  /// (Theorem 3) unweighted, 16 sqrt(k) rho ceil(log n) (Lemmas 7+8)
  /// weighted; guarantee = fractional.objective / factor.
  double factor = 0.0;
  bool used_column_generation = false;
  /// Whether fractional.objective is a PROVEN LP optimum (explicit solve,
  /// or column generation whose oracle certified optimality). A colgen run
  /// that exhausted its pricing rounds returns only a restricted-master
  /// optimum -- a lower bound on b* -- so no guarantee is claimed from it.
  bool lp_bound_proven = false;
  /// The time budget fired: the LP stopped early (status kTimeLimit, no
  /// allocation) or some rounding repetitions were skipped. The returned
  /// allocation is still feasible, possibly empty.
  bool timed_out = false;
  /// The LP solve installed a caller-provided basis hint (PipelineOptions::
  /// warm) and re-optimized from it instead of pivoting from scratch.
  bool warm_started = false;
  /// Simplex pivots the LP solve spent (= fractional.pivots; surfaced here
  /// so report assembly does not dig into the payload).
  long long pivots = 0;
  /// Master solves (lp::BendersResult::rounds) / generated columns of the
  /// column-generation path (both 0 when the explicit LP ran); surfaced on
  /// SolveReport as the oracle_rounds / columns_generated diagnostics.
  int oracle_rounds = 0;
  int columns_generated = 0;
};

/// Runs LP + rounding end to end. The returned allocation is always
/// feasible; `guarantee` is the paper's worst-case expectation bound
/// (Theorem 3 or Lemmas 7+8) evaluated for this instance. Prefer
/// `make_solver("lp-rounding")->solve(instance, options)` (api/api.hpp)
/// unless you need the raw PipelineResult.
[[nodiscard]] PipelineResult solve_pipeline(const AuctionInstance& instance,
                                            PipelineOptions options = {});

}  // namespace ssa
