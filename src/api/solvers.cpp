/// \file solvers.cpp
/// Adapters exposing every algorithm of the reproduction through the
/// unified Solver interface, and their registration with the global
/// SolverRegistry. Adding an algorithm = one adapter class + one add() line
/// in register_builtin_solvers. Symmetric (Problem 1) algorithms derive
/// from SymmetricSolver, the Section-6 family from AsymmetricSolver; the
/// bases own the instance-type domain check.

#include <algorithm>
#include <stdexcept>
#include <string>

#include "api/registry.hpp"
#include "api/solver.hpp"
#include "core/asymmetric.hpp"
#include "core/asymmetric_colgen.hpp"
#include "core/exact.hpp"
#include "core/greedy.hpp"
#include "core/pipeline.hpp"
#include "mechanism/decomposition.hpp"
#include "mechanism/mechanism.hpp"
#include "support/deadline.hpp"

namespace ssa {
namespace {

/// ExactOptions with the shared time budget folded in, remembering whether
/// the node budget was actually derived from it (exact_report needs that
/// to attribute an inexact search correctly).
struct BudgetedExactOptions {
  ExactOptions options;
  bool node_budget_from_time = false;
};

/// Advisory time budget -> B&B node budget at an assumed ~2M nodes/s. Only
/// tightens when the scaled value is representable and smaller (a huge
/// budget must not overflow the cast into a tiny one). The deadline in
/// ExactOptions provides the hard cooperative stop on top; an unset shared
/// budget leaves a caller-armed section deadline alone (the shared-seed
/// precedent).
BudgetedExactOptions exact_options_with_budget(const SolveOptions& options) {
  BudgetedExactOptions budgeted;
  budgeted.options = options.exact;
  if (options.time_budget_seconds > 0.0) {
    budgeted.options.deadline = Deadline::after(options.time_budget_seconds);
    const double scaled = options.time_budget_seconds * 2e6;
    if (scaled < static_cast<double>(budgeted.options.node_budget)) {
      budgeted.options.node_budget =
          std::max(1LL, static_cast<long long>(scaled));
      budgeted.node_budget_from_time = true;
    }
  }
  return budgeted;
}

/// Shared report assembly for both B&B adapters: the exact/timed_out
/// mapping and the OPT diagnostics must never diverge between families.
SolveReport exact_report(const ExactResult& result,
                         const BudgetedExactOptions& budgeted) {
  SolveReport report;
  report.params =
      "node_budget=" + std::to_string(budgeted.options.node_budget);
  report.allocation = result.allocation;
  report.exact = result.exact;
  // Time truncation: the deadline fired, or the node budget that stopped
  // the search was itself derived from the time budget. A search that
  // merely exhausted its caller-set node budget is not "timed out".
  report.timed_out =
      result.timed_out || (budgeted.node_budget_from_time && !result.exact);
  if (result.exact) {
    report.guarantee = result.welfare;
    report.factor = 1.0;
  }
  return report;
}

class LpRoundingSolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "lp-rounding"; }
  std::string description() const override {
    return "LP relaxation + randomized rounding (Algorithms 1-3); expected "
           "welfare >= b*/(8 sqrt(k) rho) unweighted, b*/(16 sqrt(k) rho "
           "ceil(log n)) weighted";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions& options) const override {
    PipelineOptions pipeline = options.pipeline;
    pipeline.seed = options.seed;
    // Shared-vs-section budget precedence pinned in support/deadline.hpp.
    pipeline.time_budget_seconds = effective_budget(
        options.time_budget_seconds, pipeline.time_budget_seconds);
    // Bridge the runtime-only warm-start side channel into the pipeline.
    // The hint is honored only when warm_start allows it; the export side
    // always runs so a cold solve still banks its basis for the next call.
    LpWarmStart warm;
    if (WarmStartContext* context = options.warm_context) {
      if (options.warm_start && context->hint != nullptr) {
        warm.hint = &context->hint->basis;
      }
      warm.exported = &context->exported.basis;
      context->exported.num_bidders =
          static_cast<std::uint32_t>(instance.num_bidders());
      context->exported.num_channels =
          static_cast<std::uint32_t>(instance.num_channels());
      pipeline.warm = &warm;
    }
    const PipelineResult result = solve_pipeline(instance, pipeline);
    // An LP that failed for any reason other than the time budget (pivot
    // limit, infeasibility) is an error, not a silent zero-welfare report.
    if (result.fractional.status != lp::SolveStatus::kOptimal &&
        !result.timed_out) {
      throw std::runtime_error("lp-rounding: LP solve failed (" +
                               lp::to_string(result.fractional.status) + ")");
    }
    SolveReport report;
    report.params = "reps=" + std::to_string(pipeline.rounding_repetitions) +
                    (pipeline.derandomize ? " derand" : "") +
                    (result.used_column_generation ? " lp=colgen"
                                                   : " lp=explicit");
    report.allocation = result.allocation;
    report.timed_out = result.timed_out;
    report.warm_started = result.warm_started;
    report.pivots = result.pivots;
    report.oracle_rounds = static_cast<std::uint32_t>(result.oracle_rounds);
    report.columns_generated =
        static_cast<std::uint32_t>(result.columns_generated);
    // Rounding ran, so the fractional payload is always worth reporting;
    // the b* bound and the guarantee derived from it are published only
    // when the LP optimum is proven (explicit solve or certified colgen) --
    // a restricted-master objective is not an upper bound on OPT.
    report.fractional = result.fractional;
    if (result.lp_bound_proven) {
      report.guarantee = result.guarantee;
      report.factor = result.factor;
      report.lp_upper_bound = result.fractional.objective;
    }
    return report;
  }
};

class ExactSolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "exact"; }
  std::string description() const override {
    return "exact winner determination by branch and bound (OPT reference; "
           "exponential, small instances only)";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions& options) const override {
    const BudgetedExactOptions budgeted = exact_options_with_budget(options);
    return exact_report(solve_exact(instance, budgeted.options), budgeted);
  }
};

class GreedyValueSolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "greedy-value"; }
  std::string description() const override {
    return "greedy by bidder max value, each taking its best feasible "
           "bundle (heuristic baseline, no guarantee)";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions&) const override {
    SolveReport report;
    report.allocation = greedy_by_value(instance);
    return report;
  }
};

class GreedyDensitySolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "greedy-density"; }
  std::string description() const override {
    return "greedy over (bidder, bundle) pairs by value/|T| density "
           "(heuristic baseline, no guarantee)";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions&) const override {
    SolveReport report;
    report.allocation = greedy_by_density(instance);
    return report;
  }
};

class SubmodularGreedySolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "submodular-greedy"; }
  std::string description() const override {
    return "marginal-value greedy over (bidder, channel) pairs for the "
           "submodular-bidder setting of Hoefer-Kesselheim "
           "(arXiv:1110.5753); heuristic on arbitrary valuations";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions&) const override {
    SolveReport report;
    report.allocation = greedy_submodular(instance);
    return report;
  }
};

class LocalRatioSingleChannelSolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "local-ratio-k1"; }
  std::string description() const override {
    return "local-ratio MWIS for k = 1 on unweighted graphs; welfare >= "
           "OPT / rho(pi)";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions&) const override {
    SolveReport report;
    report.allocation = local_ratio_single_channel(instance);
    report.factor = instance.rho();
    return report;
  }
};

class LocalRatioPerChannelSolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "local-ratio-per-channel"; }
  std::string description() const override {
    return "channel-by-channel local ratio on marginal values, unweighted "
           "graphs, any k (heuristic baseline, no guarantee)";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions&) const override {
    SolveReport report;
    report.allocation = local_ratio_per_channel(instance);
    return report;
  }
};

class MechanismSolver final : public SymmetricSolver {
 public:
  std::string name() const override { return "mechanism"; }
  std::string description() const override {
    return "truthful-in-expectation mechanism (Section 5): fractional VCG + "
           "Lavi-Swamy decomposition; E[welfare] = b*/alpha";
  }

 protected:
  SolveReport solve_symmetric(const AuctionInstance& instance,
                              const SolveOptions& options) const override {
    MechanismOptions mechanism = options.mechanism;
    mechanism.sample_seed = options.seed;
    mechanism.decomposition.seed = options.seed;
    MechanismOutcome outcome = solve_mechanism(instance, mechanism);
    SolveReport report;
    report.params = "alpha=" + std::to_string(outcome.decomposition.alpha) +
                    (outcome.used_colgen ? " lp=colgen" : " lp=explicit");
    report.allocation = outcome.allocation;
    // The realized draw carries the expectation bound E[welfare] = b*/alpha
    // (Section 5); the factor holds in expectation, not per realization.
    report.guarantee =
        outcome.vcg.optimum.objective / outcome.decomposition.alpha;
    report.factor = outcome.decomposition.alpha;
    report.lp_upper_bound = outcome.vcg.optimum.objective;
    report.fractional = outcome.vcg.optimum;
    report.pivots = outcome.vcg.pivots + outcome.decomposition.pivots;
    report.mechanism = std::move(outcome);
    return report;
  }
};

// -- Section 6: asymmetric channels -----------------------------------------

class AsymmetricLpRoundingSolver final : public AsymmetricSolver {
 public:
  std::string name() const override { return "asymmetric-lp-rounding"; }
  std::string description() const override {
    return "Section 6 LP (per-channel wbar_j rows) + rounding at the "
           "1/(2 k rho) scale; E[welfare] >= b*/(4 k rho), unweighted "
           "per-channel graphs";
  }

 protected:
  SolveReport solve_asymmetric(const AsymmetricInstance& instance,
                               const SolveOptions& options) const override {
    // Domain check before the (expensive) explicit LP: the rounding stage
    // would reject weighted graphs anyway, so fail in O(1) up front.
    if (!instance.unweighted()) {
      throw std::invalid_argument(
          "asymmetric-lp-rounding: unweighted per-channel graphs only");
    }
    PipelineOptions pipeline = options.pipeline;
    pipeline.seed = options.seed;
    // Shared-vs-section budget precedence pinned in support/deadline.hpp.
    const double budget_seconds = effective_budget(
        options.time_budget_seconds, pipeline.time_budget_seconds);
    const Deadline deadline = Deadline::after(budget_seconds);
    lp::SimplexOptions simplex;
    simplex.deadline = deadline;

    SolveReport report;
    report.params =
        "reps=" + std::to_string(pipeline.rounding_repetitions) + " lp=explicit";
    // The common diagnostics carry the Section 6 sampling scale 2 k rho as
    // the factor; conflict resolution costs another survival factor <= 2,
    // so the proven expectation bound (the guarantee) is b* / (2 * factor)
    // = b* / (4 k rho).
    report.factor =
        2.0 * static_cast<double>(instance.num_channels()) * instance.rho();

    const FractionalSolution lp = solve_asymmetric_lp(instance, simplex);
    if (lp.status == lp::SolveStatus::kTimeLimit) {
      report.timed_out = true;
      report.factor = 0.0;  // no bound can be claimed without the LP
      return report;
    }
    if (lp.status != lp::SolveStatus::kOptimal) {
      // Pivot limit / infeasibility: an error, not a silent zero report.
      throw std::runtime_error("asymmetric-lp-rounding: LP solve failed (" +
                               lp::to_string(lp.status) + ")");
    }
    bool timed_out = false;
    report.allocation =
        best_asymmetric_rounds(instance, lp, pipeline.rounding_repetitions,
                               pipeline.seed, deadline, &timed_out);
    report.timed_out = timed_out;
    report.lp_upper_bound = lp.objective;
    report.fractional = lp;
    report.pivots = lp.pivots;
    report.guarantee = lp.objective / (2.0 * report.factor);
    return report;
  }
};

class AsymmetricColgenSolver final : public AsymmetricSolver {
 public:
  std::string name() const override { return "asymmetric-colgen"; }
  std::string description() const override {
    return "Section 6 LP by demand-oracle column generation (Benders cuts "
           "on the dual): any k, weighted per-channel graphs admitted; "
           "unweighted instances keep E[welfare] >= b*/(4 k rho), weighted "
           "ones get a heuristic greedy fit of the fractional support";
  }

 protected:
  SolveReport solve_asymmetric(const AsymmetricInstance& instance,
                               const SolveOptions& options) const override {
    PipelineOptions pipeline = options.pipeline;
    pipeline.seed = options.seed;
    // Shared-vs-section budget precedence pinned in support/deadline.hpp.
    const double budget_seconds = effective_budget(
        options.time_budget_seconds, pipeline.time_budget_seconds);
    const Deadline deadline = Deadline::after(budget_seconds);

    AsymmetricColGenOptions colgen;
    colgen.simplex.deadline = deadline;
    // Bridge the runtime-only warm-state side channel. The donor columns
    // are honored only when warm_start allows it; the export side always
    // runs so a cold solve still banks its columns for the next variant.
    if (options.warm_context != nullptr) {
      if (options.warm_start) colgen.pool = options.warm_context->hint;
      colgen.pool_export = &options.warm_context->exported;
    }
    AsymmetricColGenStats stats;
    const FractionalSolution lp =
        solve_asymmetric_lp_colgen(instance, &stats, colgen);

    SolveReport report;
    report.params = "reps=" + std::to_string(pipeline.rounding_repetitions) +
                    " lp=colgen";
    report.warm_started = stats.pool_warm_started;
    report.pivots = stats.pivots;
    report.oracle_rounds = static_cast<std::uint32_t>(stats.rounds);
    report.columns_generated =
        static_cast<std::uint32_t>(stats.columns_generated);
    if (lp.status == lp::SolveStatus::kTimeLimit) {
      report.timed_out = true;
      return report;
    }
    if (lp.status != lp::SolveStatus::kOptimal) {
      // Pivot limit / infeasibility: an error, not a silent zero report.
      throw std::runtime_error("asymmetric-colgen: LP solve failed (" +
                               lp::to_string(lp.status) + ")");
    }
    report.fractional = lp;
    // A restricted-master objective (pricing rounds exhausted) is only a
    // LOWER bound on b*, so the upper bound and any guarantee derived from
    // it ride on the oracle's optimality certificate.
    if (stats.proved_optimal) report.lp_upper_bound = lp.objective;

    if (instance.unweighted()) {
      // Same rounding stage and Section 6 bookkeeping as
      // asymmetric-lp-rounding: sampling scale 2 k rho, conflict survival
      // <= 2, E[welfare] >= b* / (4 k rho).
      bool timed_out = false;
      report.allocation =
          best_asymmetric_rounds(instance, lp, pipeline.rounding_repetitions,
                                 pipeline.seed, deadline, &timed_out);
      report.timed_out = timed_out;
      if (stats.proved_optimal) {
        report.factor = 2.0 * static_cast<double>(instance.num_channels()) *
                        instance.rho();
        report.guarantee = lp.objective / (2.0 * report.factor);
      }
    } else {
      // Weighted graphs: randomized rounding's survival analysis does not
      // apply; fit the fractional support greedily instead (deterministic,
      // conservative, no proven factor).
      report.allocation = greedy_fit_from_columns(instance, lp.columns);
    }
    return report;
  }
};

class AsymmetricExactSolver final : public AsymmetricSolver {
 public:
  std::string name() const override { return "asymmetric-exact"; }
  std::string description() const override {
    return "exact winner determination over per-channel conflict graphs by "
           "branch and bound (OPT reference; exponential, small instances "
           "only)";
  }

 protected:
  SolveReport solve_asymmetric(const AsymmetricInstance& instance,
                               const SolveOptions& options) const override {
    const BudgetedExactOptions budgeted = exact_options_with_budget(options);
    return exact_report(solve_asymmetric_exact(instance, budgeted.options),
                        budgeted);
  }
};

class AsymmetricGreedyValueSolver final : public AsymmetricSolver {
 public:
  std::string name() const override { return "asymmetric-greedy-value"; }
  std::string description() const override {
    return "greedy by bidder max value over per-channel graphs (heuristic "
           "baseline, no guarantee)";
  }

 protected:
  SolveReport solve_asymmetric(const AsymmetricInstance& instance,
                               const SolveOptions&) const override {
    SolveReport report;
    report.allocation = greedy_by_value_asymmetric(instance);
    return report;
  }
};

class AsymmetricGreedyDensitySolver final : public AsymmetricSolver {
 public:
  std::string name() const override { return "asymmetric-greedy-density"; }
  std::string description() const override {
    return "greedy over (bidder, bundle) pairs by value/|T| density with "
           "per-channel feasibility (heuristic baseline, no guarantee)";
  }

 protected:
  SolveReport solve_asymmetric(const AsymmetricInstance& instance,
                               const SolveOptions&) const override {
    SolveReport report;
    report.allocation = greedy_by_density_asymmetric(instance);
    return report;
  }
};

template <typename S>
SolverFactory factory_of() {
  return [] { return std::make_unique<S>(); };
}

}  // namespace

namespace detail {

void register_builtin_solvers(SolverRegistry& registry) {
  registry.add("lp-rounding", factory_of<LpRoundingSolver>());
  registry.add("exact", factory_of<ExactSolver>());
  registry.add("greedy-value", factory_of<GreedyValueSolver>());
  registry.add("greedy-density", factory_of<GreedyDensitySolver>());
  // Follow-up paper entry (arXiv:1110.5753): a plain registry add() over
  // the existing SymmetricSolver adapter -- new algorithms need no new
  // entry points, which is exactly what keeps them servable through every
  // AuctionClient transport unchanged.
  registry.add("submodular-greedy", factory_of<SubmodularGreedySolver>());
  registry.add("local-ratio-k1", factory_of<LocalRatioSingleChannelSolver>());
  registry.add("local-ratio-per-channel",
               factory_of<LocalRatioPerChannelSolver>());
  registry.add("mechanism", factory_of<MechanismSolver>());
  registry.add("asymmetric-lp-rounding",
               factory_of<AsymmetricLpRoundingSolver>());
  // Decomposition entry (ROADMAP "solve path: decomposition"): demand-
  // oracle column generation over the Section 6 master, which is what
  // lifts the explicit-enumeration channel cap and admits weighted
  // asymmetric instances.
  registry.add("asymmetric-colgen", factory_of<AsymmetricColgenSolver>());
  registry.add("asymmetric-exact", factory_of<AsymmetricExactSolver>());
  registry.add("asymmetric-greedy-value",
               factory_of<AsymmetricGreedyValueSolver>());
  registry.add("asymmetric-greedy-density",
               factory_of<AsymmetricGreedyDensitySolver>());
}

}  // namespace detail
}  // namespace ssa
