#pragma once
/// \file greedy.hpp
/// Baseline allocation heuristics the experiments compare against:
///  - greedy by bidder value,
///  - greedy by bid density (value / bundle size),
///  - the local-ratio / opportunity-cost rho-approximation for k = 1 on
///    unweighted graphs (Akcoglu et al. [1], Ye/Borodin [32]), which the
///    paper cites as the single-channel specialization of its framework.

#include "core/instance.hpp"

namespace ssa {

/// Bidders in decreasing max-value order each take the feasible bundle of
/// maximum value (enumerates bundles; requires k <= kExplicitChannelLimit).
[[nodiscard]] Allocation greedy_by_value(const AuctionInstance& instance);

/// All (bidder, bundle) pairs sorted by value / |T|, single pass with
/// feasibility checks (requires k <= kExplicitChannelLimit).
[[nodiscard]] Allocation greedy_by_density(const AuctionInstance& instance);

/// Local-ratio maximum-weight independent set for k = 1 on an unweighted
/// conflict graph: processes vertices in descending pi subtracting residual
/// value from backward neighbors, then builds a maximal set in ascending pi
/// order from the positive-residual stack. Guarantees welfare >= OPT / rho(pi).
[[nodiscard]] Allocation local_ratio_single_channel(
    const AuctionInstance& instance);

/// Multi-channel extension of the local-ratio baseline: channels are
/// auctioned one at a time; channel j runs the local-ratio algorithm with
/// vertex weights equal to each bidder's *marginal* value of adding j to
/// what it already won. Handles arbitrary valuations on unweighted graphs.
/// A heuristic baseline (no approximation guarantee is claimed).
[[nodiscard]] Allocation local_ratio_per_channel(
    const AuctionInstance& instance);

/// Marginal-value greedy for the submodular-bidder setting of
/// Hoefer-Kesselheim (arXiv:1110.5753): repeatedly assign the single
/// (bidder, channel) pair of maximum marginal value
///     b_v(S_v + j) - b_v(S_v)
/// among the pairs that keep every channel's holder set conflict-free,
/// until no pair improves welfare. For submodular valuations marginals
/// only shrink as bundles grow, so stopping at the first non-positive
/// maximum is lossless there; on arbitrary valuations (where a
/// complementary bidder's marginal could *rise* later) it is a heuristic
/// like the other greedy baselines. Ties break by bidder id, then channel
/// id (deterministic). The conflict check is binary and therefore
/// conservative on weighted graphs, exactly like greedy_by_value.
[[nodiscard]] Allocation greedy_submodular(const AuctionInstance& instance);

}  // namespace ssa
