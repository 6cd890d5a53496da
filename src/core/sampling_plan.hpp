#pragma once
/// \file sampling_plan.hpp
/// The one rounding kernel behind Algorithms 1 and 2 + 3, Section 6, the
/// derandomized sweep and the Lavi-Swamy pricing loop. A SamplingPlan holds
/// per decomposition half and bidder that bidder's support columns in LP
/// column order, with cumulative thresholds (running sums of x_{v,T} /
/// denominator) and values. It is built once per LP solution; Monte-Carlo
/// passes run against it in scratch reused from pass to pass, with no heap
/// allocation and no virtual Valuation::value call, drawing, comparing and
/// summing exactly what per-pass tables would.

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/allocation.hpp"
#include "core/auction_lp.hpp"
#include "support/deadline.hpp"
#include "support/random.hpp"

namespace ssa::detail {

struct SamplingPlan {
  /// \p split_channels = k > 0 gives the two halves of Algorithms 1 and 2
  /// (half 0 keeps |T| <= sqrt(k)); 0 keeps one half (Section 6). Values
  /// start at 0 for the caller to fill.
  SamplingPlan(const FractionalSolution& fractional, std::size_t n,
               double denominator, int split_channels)
      : num_bidders(n), halves(split_channels > 0 ? 2 : 1) {
    const double sqrt_k = std::sqrt(static_cast<double>(split_channels));
    const auto slot_of = [&](const FractionalColumn& column) {
      const bool large =
          halves == 2 && bundle_size(column.bundle) > sqrt_k + 1e-12;
      return (large ? n : 0) + static_cast<std::size_t>(column.bidder);
    };
    // Counting sort by (half, bidder), stable in LP column order.
    offset.assign(static_cast<std::size_t>(halves) * n + 1, 0);
    for (const FractionalColumn& column : fractional.columns) {
      ++offset[slot_of(column) + 1];
    }
    for (std::size_t i = 1; i < offset.size(); ++i) offset[i] += offset[i - 1];
    const std::size_t columns = fractional.columns.size();
    bidder.resize(columns);
    bundle.resize(columns);
    threshold.resize(columns);
    value.assign(columns, 0.0);
    std::vector<std::size_t> next(offset.begin(), offset.end() - 1);
    for (const FractionalColumn& column : fractional.columns) {
      const std::size_t slot = slot_of(column);
      const std::size_t j = next[slot]++;
      const double previous = j == offset[slot] ? 0.0 : threshold[j - 1];
      bidder[j] = column.bidder;
      bundle[j] = column.bundle;
      threshold[j] = previous + column.x / denominator;
    }
  }

  std::size_t num_bidders;
  int halves;
  /// Columns of (half h, bidder v) are [offset[h n + v], offset[h n + v + 1]).
  std::vector<std::size_t> offset;
  std::vector<int> bidder;
  std::vector<Bundle> bundle;
  std::vector<double> threshold;
  std::vector<double> value;
};

/// Scratch space, reused from pass to pass.
struct PassScratch {
  explicit PassScratch(std::size_t n)
      : uniforms(2 * n), bundles(n), values(n), result(n), result_values(n),
        spare(n), remaining(n) {}

  std::vector<double> uniforms;  ///< half 0's n draws, then half 1's
  std::vector<Bundle> bundles;   ///< the half being rounded, and
  std::vector<double> values;    ///< each bidder's value of it
  std::vector<Bundle> result;    ///< the pass's allocation, and
  std::vector<double> result_values;
  std::vector<Bundle> spare;     ///< Algorithm 3's candidate
  std::vector<char> remaining;   ///< Algorithm 3's pool V'
};

/// Welfare summed in bidder order over the non-empty bundles, exactly as
/// AuctionInstance::welfare sums it.
inline double welfare_of(std::span<const Bundle> bundles,
                         std::span<const double> values) {
  double total = 0.0;
  for (std::size_t v = 0; v < bundles.size(); ++v) {
    if (bundles[v] != kEmptyBundle) total += values[v];
  }
  return total;
}

/// Fills the uniforms of one pass from \p rng: n per half, half 0 first.
inline void draw_uniforms(const SamplingPlan& plan, Rng& rng, PassScratch& s) {
  const std::size_t draws =
      plan.num_bidders * static_cast<std::size_t>(plan.halves);
  for (std::size_t i = 0; i < draws; ++i) s.uniforms[i] = rng.uniform();
}

/// Rounds each half h of \p plan (bidder v takes its first column whose
/// threshold exceeds uniform h * stride + v), applies resolve(bundles) and
/// keeps the first half of maximum welfare in s.result; returns it.
template <typename Resolve>
double round_halves(const SamplingPlan& plan, std::size_t stride,
                    PassScratch& s, const Resolve& resolve) {
  const std::size_t n = plan.num_bidders;
  double best = -1.0;
  for (std::size_t h = 0; h < static_cast<std::size_t>(plan.halves); ++h) {
    for (std::size_t v = 0; v < n; ++v) {
      const double u = s.uniforms[h * stride + v];
      std::size_t j = plan.offset[h * n + v];
      const std::size_t end = plan.offset[h * n + v + 1];
      while (j < end && !(u < plan.threshold[j])) ++j;
      s.bundles[v] = j < end ? plan.bundle[j] : kEmptyBundle;
      s.values[v] = j < end ? plan.value[j] : 0.0;
    }
    resolve(s.bundles);
    const double welfare = welfare_of(s.bundles, s.values);
    if (welfare > best) {
      best = welfare;
      s.result.swap(s.bundles);
      s.result_values.swap(s.values);
    }
  }
  return best;
}

/// Best of \p passes: pass(i, scratch) leaves pass i's allocation in
/// scratch.result and returns its welfare; the first pass of maximum
/// welfare wins. Pass 0 always runs; once \p deadline has fired, the loop
/// stops before the next pass and sets *\p timed_out.
template <typename Pass>
Allocation best_rounds(std::size_t num_bidders, std::int64_t passes,
                       const Deadline& deadline, bool* timed_out,
                       const Pass& pass) {
  if (passes < 1) {
    throw std::invalid_argument("best_rounds: repetitions must be >= 1");
  }
  PassScratch scratch(num_bidders);
  std::vector<Bundle> best;
  double best_welfare = -1.0;  // below every pass: welfare is non-negative
  for (std::int64_t i = 0; i < passes; ++i) {
    if (i != 0 && deadline.expired()) {
      if (timed_out != nullptr) *timed_out = true;
      break;
    }
    const double welfare = pass(i, scratch);
    if (welfare > best_welfare) {
      best_welfare = welfare;
      best = scratch.result;
    }
  }
  return Allocation{std::move(best)};
}

}  // namespace ssa::detail
