#include "core/pipeline.hpp"

#include "core/rounding.hpp"
#include "support/deadline.hpp"
#include "support/pairwise.hpp"

namespace ssa {

PipelineResult solve_pipeline(const AuctionInstance& instance,
                              PipelineOptions options) {
  PipelineResult result;
  result.factor = default_alpha(instance);
  result.used_column_generation =
      options.force_column_generation ||
      instance.num_channels() > options.explicit_limit;
  // One deadline covers the whole run; the LP and the rounding loop poll it
  // cooperatively and truncation surfaces as result.timed_out.
  const Deadline deadline = Deadline::after(options.time_budget_seconds);
  lp::SimplexOptions simplex;
  simplex.deadline = deadline;
  lp::BendersOptions colgen;
  colgen.simplex = simplex;
  ColGenStats colgen_stats;
  result.fractional =
      result.used_column_generation
          ? solve_auction_lp_colgen(instance, &colgen_stats, colgen)
          : solve_auction_lp(instance, simplex, options.warm);
  result.pivots = result.fractional.pivots;
  result.oracle_rounds = colgen_stats.rounds;
  result.columns_generated = colgen_stats.columns_generated;
  result.warm_started = !result.used_column_generation &&
                        options.warm != nullptr && options.warm->warm_started;
  if (result.fractional.status != lp::SolveStatus::kOptimal) {
    result.timed_out = result.fractional.status == lp::SolveStatus::kTimeLimit;
    return result;
  }
  result.lp_bound_proven =
      !result.used_column_generation || colgen_stats.proved_optimal;

  result.allocation =
      best_of_rounds(instance, result.fractional, options.rounding_repetitions,
                     options.seed, deadline, &result.timed_out);
  if (options.derandomize) {
    if (deadline.expired()) {
      result.timed_out = true;  // the derandomized sweep was skipped
    } else {
      const PairwiseFamily family(instance.num_bidders());
      const Allocation derandomized =
          derandomized_round(instance, result.fractional, family);
      if (instance.welfare(derandomized) >
          instance.welfare(result.allocation)) {
        result.allocation = derandomized;
      }
    }
  }
  result.welfare = instance.welfare(result.allocation);
  // A restricted-master objective is a lower bound on b*: b*/factor would
  // be an unproven claim, so the guarantee rides on the proven flag.
  if (result.lp_bound_proven) {
    result.guarantee = result.fractional.objective / result.factor;
  }
  return result;
}

}  // namespace ssa
