#pragma once
/// \file asymmetric.hpp
/// Asymmetric channels (Section 6): every channel j has its own conflict
/// graph/edge weights. The LP swaps wbar for wbar_j in the (u, j) rows; the
/// rounding keeps the structure of Algorithm 1 but samples with probability
/// x_{v,T} / (2 k rho) (no sqrt(k) decomposition -- the proof of Lemma 4
/// goes through without symmetry at that scaling), giving the O(k rho)
/// factor that Theorem 18 shows is essentially optimal.
///
/// Rounding is implemented for unweighted per-channel graphs (the setting
/// of Theorem 18); the LP itself accepts weighted graphs. Besides the
/// LP+rounding pipeline this file carries the exact branch-and-bound and
/// greedy baselines for asymmetric instances; all of them are exposed
/// through the unified Solver registry as the "asymmetric-*" entries
/// (api/solvers.cpp).

#include <cstdint>
#include <span>
#include <vector>

#include "core/auction_lp.hpp"
#include "core/exact.hpp"
#include "core/instance.hpp"
#include "support/deadline.hpp"
#include "support/random.hpp"

namespace ssa {

/// Auction instance with one conflict graph per channel.
class AsymmetricInstance {
 public:
  /// Channel cap of the asymmetric family, now the library-wide bundle
  /// bound (bundle.hpp): solve_asymmetric_lp_colgen (asymmetric_colgen.hpp)
  /// prices columns through a demand oracle and never enumerates the 2^k
  /// bundle space, so the instance itself admits any representable k.
  static constexpr int kMaxChannels = ssa::kMaxChannels;

  /// Cap of the *explicit-enumeration* algorithms (solve_asymmetric_lp and
  /// the greedy baselines), which still materialize all 2^k - 1 bundles per
  /// bidder: the library-wide explicit cap (bundle.hpp), shared with the
  /// symmetric family. Instances above it must go through the
  /// column-generation solver. The exact B&B additionally keeps its own
  /// tighter, caller-overridable guard (ExactOptions::max_channels, default
  /// 6), exactly as in the symmetric family.
  static constexpr int kExplicitChannelLimit = ssa::kExplicitChannelLimit;

  /// \p rho = 0 measures max over channels of rho_j(pi) with the verifier.
  AsymmetricInstance(std::vector<ConflictGraph> channel_graphs, Ordering order,
                     std::vector<ValuationPtr> valuations, double rho = 0.0);

  [[nodiscard]] std::size_t num_bidders() const noexcept {
    return valuations_.size();
  }
  [[nodiscard]] int num_channels() const noexcept {
    return static_cast<int>(graphs_.size());
  }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] const ConflictGraph& graph(int channel) const {
    return graphs_.at(static_cast<std::size_t>(channel));
  }
  [[nodiscard]] std::span<const ConflictGraph> graphs() const noexcept {
    return graphs_;
  }
  [[nodiscard]] const Ordering& order() const noexcept { return order_; }
  [[nodiscard]] const std::vector<int>& positions() const noexcept {
    return position_;
  }
  [[nodiscard]] const Valuation& valuation(std::size_t v) const {
    return *valuations_.at(v);
  }
  [[nodiscard]] double value(std::size_t v, Bundle bundle) const {
    return valuations_[v]->value(bundle);
  }
  [[nodiscard]] double welfare(const Allocation& allocation) const;
  [[nodiscard]] bool feasible(const Allocation& allocation) const {
    return is_feasible_asymmetric(allocation, graphs_);
  }
  [[nodiscard]] bool unweighted() const noexcept { return unweighted_; }

  /// A copy with bidder \p v's valuation replaced (mechanism experiments,
  /// load::ScenarioPool's churn variants) -- the asymmetric counterpart of
  /// AuctionInstance::with_valuation.
  [[nodiscard]] AsymmetricInstance with_valuation(std::size_t v,
                                                  ValuationPtr valuation) const;

 private:
  std::vector<ConflictGraph> graphs_;
  Ordering order_;
  std::vector<int> position_;
  double rho_;
  std::vector<ValuationPtr> valuations_;
  bool unweighted_;
};

/// Column entries of variable (v, T) against the per-channel graphs:
/// wbar_j(v, u) in row (u, j) for forward neighbors u and j in T, plus the
/// convexity row of v.
[[nodiscard]] std::vector<lp::ColumnEntry> asymmetric_bundle_column(
    const AsymmetricInstance& instance, int bidder, Bundle bundle);

/// Explicit LP for the asymmetric problem. Enumerates every bundle, so it
/// refuses k > AsymmetricInstance::kExplicitChannelLimit; larger instances
/// go through solve_asymmetric_lp_colgen (asymmetric_colgen.hpp).
[[nodiscard]] FractionalSolution solve_asymmetric_lp(
    const AsymmetricInstance& instance, lp::SimplexOptions options = {});

/// Randomized rounding with the 1/(2 k rho) scaling. Unweighted graphs
/// only. Conflict resolution follows Algorithm 1 verbatim (the paper's
/// Section 6 keeps its structure): processing vertices in ascending pi, a
/// vertex that conflicts with a kept earlier vertex on ANY channel of its
/// bundle is removed ENTIRELY -- no per-channel trimming. Trimming would
/// hand bidders sub-bundles the analysis never charges (a single-minded
/// bidder would keep a worthless remainder while still blocking later
/// vertices on its surviving channels); the full drop is what the
/// survival-probability argument (expected conflicting earlier neighbors
/// <= 1/(2k) per channel, <= 1/2 over the bundle) prices in, giving
/// E[welfare] >= b* / (4 k rho).
[[nodiscard]] Allocation round_asymmetric(const AsymmetricInstance& instance,
                                          const FractionalSolution& fractional,
                                          Rng& rng);

/// Best of \p repetitions rounding passes (deterministic for a fixed
/// \p seed as long as \p deadline does not fire). Repetition 0 always runs
/// so the result is feasible even under an expired deadline; skipped
/// repetitions set *\p timed_out when non-null.
[[nodiscard]] Allocation best_asymmetric_rounds(
    const AsymmetricInstance& instance, const FractionalSolution& fractional,
    int repetitions, std::uint64_t seed, const Deadline& deadline = {},
    bool* timed_out = nullptr);

/// Exact winner determination for per-channel conflict graphs by branch and
/// bound over bidders (OPT reference; exponential, small instances only).
/// Unweighted per-channel graphs only, like round_asymmetric: the search
/// prunes on binary conflicts, which on weighted graphs would skip
/// allocations the incoming-weight feasibility admits and falsely claim
/// exactness. Reuses ExactOptions/ExactResult from the symmetric solver,
/// including the node budget and cooperative deadline.
[[nodiscard]] ExactResult solve_asymmetric_exact(
    const AsymmetricInstance& instance, ExactOptions options = {});

/// Greedy baseline: bidders in decreasing max-value order each take the
/// feasible bundle of maximum value against the per-channel graphs. On
/// weighted graphs the binary-conflict check is conservative (it never
/// yields an infeasible allocation, but may leave weighted-feasible value
/// on the table) -- acceptable for a no-guarantee heuristic. Enumerates
/// bundles explicitly, so k <= AsymmetricInstance::kExplicitChannelLimit.
[[nodiscard]] Allocation greedy_by_value_asymmetric(
    const AsymmetricInstance& instance);

/// Greedy baseline: all (bidder, bundle) pairs by value / |T| density,
/// single pass with per-channel feasibility checks (conservative on
/// weighted graphs, see greedy_by_value_asymmetric). Enumerates bundles
/// explicitly, so k <= AsymmetricInstance::kExplicitChannelLimit.
[[nodiscard]] Allocation greedy_by_density_asymmetric(
    const AsymmetricInstance& instance);

}  // namespace ssa
