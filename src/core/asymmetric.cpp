#include "core/asymmetric.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/sampling_plan.hpp"
#include "graph/inductive_independence.hpp"
#include "lp/simplex.hpp"

namespace ssa {

AsymmetricInstance::AsymmetricInstance(std::vector<ConflictGraph> channel_graphs,
                                       Ordering order,
                                       std::vector<ValuationPtr> valuations,
                                       double rho)
    : graphs_(std::move(channel_graphs)),
      order_(std::move(order)),
      rho_(rho),
      valuations_(std::move(valuations)) {
  if (graphs_.empty() ||
      graphs_.size() > static_cast<std::size_t>(kMaxChannels)) {
    throw std::invalid_argument(
        "AsymmetricInstance: channel count must be in [1, " +
        std::to_string(kMaxChannels) + "], got " +
        std::to_string(graphs_.size()));
  }
  const std::size_t n = valuations_.size();
  for (const auto& graph : graphs_) {
    if (graph.size() != n) {
      throw std::invalid_argument("AsymmetricInstance: graph size mismatch");
    }
  }
  for (const auto& valuation : valuations_) {
    if (!valuation || valuation->num_channels() != num_channels()) {
      throw std::invalid_argument("AsymmetricInstance: valuation mismatch");
    }
  }
  position_ = ordering_positions(order_);
  for (const auto& graph : graphs_) graph.ensure_adjacency();
  if (rho_ <= 0.0) {
    for (const auto& graph : graphs_) {
      rho_ = std::max(rho_, rho_of_ordering(graph, order_).value);
    }
  }
  rho_ = std::max(rho_, 1.0);
  unweighted_ = true;
  for (const auto& graph : graphs_) unweighted_ = unweighted_ && graph.is_unweighted();
}

AsymmetricInstance AsymmetricInstance::with_valuation(
    std::size_t v, ValuationPtr valuation) const {
  std::vector<ValuationPtr> valuations = valuations_;
  valuations.at(v) = std::move(valuation);
  return AsymmetricInstance(graphs_, order_, std::move(valuations), rho_);
}

double AsymmetricInstance::welfare(const Allocation& allocation) const {
  double total = 0.0;
  for (std::size_t v = 0; v < num_bidders(); ++v) {
    if (allocation.bundles[v] != kEmptyBundle) {
      total += value(v, allocation.bundles[v]);
    }
  }
  return total;
}

std::vector<lp::ColumnEntry> asymmetric_bundle_column(
    const AsymmetricInstance& instance, int bidder, Bundle bundle) {
  if (bundle == kEmptyBundle) {
    throw std::invalid_argument(
        "asymmetric_bundle_column: empty bundle has no column");
  }
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const std::size_t v = static_cast<std::size_t>(bidder);

  std::vector<lp::ColumnEntry> entries;
  for (int j = 0; j < k; ++j) {
    if (!bundle_has(bundle, j)) continue;
    const auto& graph = instance.graph(j);
    for (int u : graph.neighbors(v)) {
      if (instance.positions()[static_cast<std::size_t>(u)] <=
          instance.positions()[v]) {
        continue;
      }
      const double wbar = graph.coupling_weight(v, static_cast<std::size_t>(u));
      if (wbar > 0.0) {
        entries.push_back(
            {channel_row(static_cast<std::size_t>(u), j, k), wbar});
      }
    }
  }
  entries.push_back({static_cast<int>(n) * k + bidder, 1.0});
  return entries;
}

FractionalSolution solve_asymmetric_lp(const AsymmetricInstance& instance,
                                       lp::SimplexOptions options) {
  const int k = instance.num_channels();
  // This path materializes every one of the 2^k - 1 bundles per bidder;
  // beyond the explicit limit the caller must use the demand-oracle
  // column-generation solver (solve_asymmetric_lp_colgen) instead.
  if (k > AsymmetricInstance::kExplicitChannelLimit) {
    throw std::invalid_argument(
        "solve_asymmetric_lp: k <= " +
        std::to_string(AsymmetricInstance::kExplicitChannelLimit) +
        " required, got " + std::to_string(k) +
        " (use asymmetric-colgen for larger instances)");
  }
  lp::LinearProgram master = build_master_rows(instance);
  std::vector<std::pair<int, Bundle>> meaning;
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const double value = instance.value(v, t);
      if (value <= 0.0) continue;
      master.add_column(
          value, asymmetric_bundle_column(instance, static_cast<int>(v), t));
      meaning.emplace_back(static_cast<int>(v), t);
    }
  }
  return extract_fractional(lp::solve(master, options), meaning);
}

namespace {

/// The Section 6 plan: every column in one half at the 1/(2 k rho) scale.
detail::SamplingPlan asymmetric_plan(const AsymmetricInstance& instance,
                                     const FractionalSolution& fractional) {
  if (!instance.unweighted()) {
    throw std::invalid_argument(
        "round_asymmetric: unweighted per-channel graphs only");
  }
  detail::SamplingPlan plan(
      fractional, instance.num_bidders(),
      2.0 * static_cast<double>(instance.num_channels()) * instance.rho(), 0);
  for (std::size_t j = 0; j < plan.value.size(); ++j) {
    const auto v = static_cast<std::size_t>(plan.bidder[j]);
    plan.value[j] = instance.value(v, plan.bundle[j]);
  }
  return plan;
}

/// One pass: one draw per bidder, then conflict resolution in ascending pi.
/// As in Algorithm 1, a conflict with a kept earlier vertex on ANY channel
/// j of v's bundle drops v's ENTIRE bundle (not just channel j). This is
/// deliberate -- see the contract in asymmetric.hpp: per-channel trimming
/// would leave sub-bundles the survival analysis never values, so the
/// whole set is charged.
double asymmetric_pass(const AsymmetricInstance& instance,
                       const detail::SamplingPlan& plan, Rng& rng,
                       detail::PassScratch& s) {
  detail::draw_uniforms(plan, rng, s);
  return detail::round_halves(plan, 0, s, [&](std::vector<Bundle>& bundles) {
    for (int v : instance.order()) {
      const std::size_t sv = static_cast<std::size_t>(v);
      if (bundles[sv] == kEmptyBundle) continue;
      bool removed = false;
      for (int j = 0; !removed && j < instance.num_channels(); ++j) {
        if (!bundle_has(bundles[sv], j)) continue;
        for (int u : instance.graph(j).neighbors(sv)) {
          const std::size_t su = static_cast<std::size_t>(u);
          if (instance.positions()[su] < instance.positions()[sv] &&
              bundle_has(bundles[su], j)) {
            bundles[sv] = kEmptyBundle;
            removed = true;
            break;
          }
        }
      }
    }
  });
}

}  // namespace

Allocation round_asymmetric(const AsymmetricInstance& instance,
                            const FractionalSolution& fractional, Rng& rng) {
  const detail::SamplingPlan plan = asymmetric_plan(instance, fractional);
  detail::PassScratch s(instance.num_bidders());
  (void)asymmetric_pass(instance, plan, rng, s);
  return Allocation{std::move(s.result)};
}

Allocation best_asymmetric_rounds(const AsymmetricInstance& instance,
                                  const FractionalSolution& fractional,
                                  int repetitions, std::uint64_t seed,
                                  const Deadline& deadline, bool* timed_out) {
  // Built before the parallel loop, so its domain check throws here: an
  // exception may not escape an OpenMP worker.
  const detail::SamplingPlan plan = asymmetric_plan(instance, fractional);
  Rng base(seed);
  return detail::best_rounds(
      instance.num_bidders(), repetitions, deadline, timed_out,
      [&](std::int64_t r, detail::PassScratch& s) {
        Rng rng = base.split(static_cast<std::uint64_t>(r));
        return asymmetric_pass(instance, plan, rng, s);
      });
}

namespace {

/// Whether bidder v can add bundle t against the current per-channel
/// assignment: no neighbor in graph j may already hold channel j.
bool fits_asymmetric(const AsymmetricInstance& instance,
                     const std::vector<Bundle>& assigned, std::size_t v,
                     Bundle t) {
  const int k = instance.num_channels();
  for (int j = 0; j < k; ++j) {
    if (!bundle_has(t, j)) continue;
    for (int u : instance.graph(j).neighbors(v)) {
      if (bundle_has(assigned[static_cast<std::size_t>(u)], j)) return false;
    }
  }
  return true;
}

/// DFS over bidders for per-channel graphs; the structural twin of
/// core/exact.cpp's ExactSearch with the independence check swapped in.
class AsymmetricSearch {
 public:
  AsymmetricSearch(const AsymmetricInstance& instance,
                   const ExactOptions& options)
      : instance_(instance), options_(options) {
    const std::size_t n = instance.num_bidders();
    const int k = instance.num_channels();
    assigned_.assign(n, kEmptyBundle);
    candidates_.resize(n);
    remaining_max_.assign(n + 1, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      for (Bundle t = 1; t < num_bundles(k); ++t) {
        if (instance.value(v, t) > 0.0) candidates_[v].push_back(t);
      }
      std::sort(candidates_[v].begin(), candidates_[v].end(),
                [&](Bundle a, Bundle b) {
                  return instance.value(v, a) > instance.value(v, b);
                });
    }
    for (std::size_t v = n; v-- > 0;) {
      const double vmax =
          candidates_[v].empty() ? 0.0 : instance.value(v, candidates_[v][0]);
      remaining_max_[v] = remaining_max_[v + 1] + vmax;
    }
  }

  ExactResult run() {
    budget_ = options_.node_budget;
    best_welfare_ = 0.0;
    best_.bundles.assign(instance_.num_bidders(), kEmptyBundle);
    if (options_.deadline.expired()) {
      timed_out_ = true;
    } else {
      recurse(0, 0.0);
    }
    ExactResult result;
    result.allocation = best_;
    result.welfare = best_welfare_;
    result.exact = budget_ > 0 && !timed_out_;
    result.timed_out = timed_out_;
    return result;
  }

 private:
  void recurse(std::size_t v, double welfare) {
    if (budget_-- <= 0 || timed_out_) return;
    if ((budget_ & 4095) == 0 && options_.deadline.expired()) {
      timed_out_ = true;
      return;
    }
    if (welfare > best_welfare_) {
      best_welfare_ = welfare;
      best_.bundles = assigned_;
    }
    if (v >= instance_.num_bidders()) return;
    if (welfare + remaining_max_[v] <= best_welfare_) return;  // bound

    for (Bundle t : candidates_[v]) {
      if (!fits_asymmetric(instance_, assigned_, v, t)) continue;
      assigned_[v] = t;
      recurse(v + 1, welfare + instance_.value(v, t));
      assigned_[v] = kEmptyBundle;
    }
    recurse(v + 1, welfare);  // branch: v gets nothing
  }

  const AsymmetricInstance& instance_;
  ExactOptions options_;
  std::vector<std::vector<Bundle>> candidates_;
  std::vector<double> remaining_max_;
  std::vector<Bundle> assigned_;
  Allocation best_;
  double best_welfare_ = 0.0;
  long long budget_ = 0;
  bool timed_out_ = false;
};

}  // namespace

ExactResult solve_asymmetric_exact(const AsymmetricInstance& instance,
                                   ExactOptions options) {
  if (instance.num_channels() > options.max_channels) {
    throw std::invalid_argument(
        "solve_asymmetric_exact: too many channels for B&B");
  }
  // The search prunes on binary conflicts (fits_asymmetric); weighted
  // graphs admit allocations (incoming weight < 1) that pruning would
  // never visit, so claiming exactness there would be wrong.
  if (!instance.unweighted()) {
    throw std::invalid_argument(
        "solve_asymmetric_exact: unweighted per-channel graphs only");
  }
  return AsymmetricSearch(instance, options).run();
}

namespace {

/// Shared guard of the bundle-enumerating greedy baselines.
void require_explicit_channels(const AsymmetricInstance& instance,
                               const char* who) {
  if (instance.num_channels() > AsymmetricInstance::kExplicitChannelLimit) {
    throw std::invalid_argument(
        std::string(who) + ": k <= " +
        std::to_string(AsymmetricInstance::kExplicitChannelLimit) +
        " required, got " + std::to_string(instance.num_channels()) +
        " (use asymmetric-colgen for larger instances)");
  }
}

}  // namespace

Allocation greedy_by_value_asymmetric(const AsymmetricInstance& instance) {
  require_explicit_channels(instance, "greedy_by_value_asymmetric");
  const int k = instance.num_channels();
  const std::size_t n = instance.num_bidders();

  std::vector<double> max_values(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      max_values[v] = std::max(max_values[v], instance.value(v, t));
    }
  }
  std::vector<std::size_t> bidders(n);
  std::iota(bidders.begin(), bidders.end(), 0);
  std::stable_sort(bidders.begin(), bidders.end(),
                   [&](std::size_t a, std::size_t b) {
                     return max_values[a] > max_values[b];
                   });

  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (std::size_t v : bidders) {
    Bundle best = kEmptyBundle;
    double best_value = 0.0;
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const double value = instance.value(v, t);
      if (value > best_value &&
          fits_asymmetric(instance, allocation.bundles, v, t)) {
        best = t;
        best_value = value;
      }
    }
    allocation.bundles[v] = best;
  }
  return allocation;
}

Allocation greedy_by_density_asymmetric(const AsymmetricInstance& instance) {
  require_explicit_channels(instance, "greedy_by_density_asymmetric");
  const int k = instance.num_channels();
  const std::size_t n = instance.num_bidders();

  struct Bid {
    std::size_t bidder;
    Bundle bundle;
    double density;
  };
  std::vector<Bid> bids;
  for (std::size_t v = 0; v < n; ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const double value = instance.value(v, t);
      if (value > 0.0) {
        bids.push_back(Bid{v, t, value / bundle_size(t)});
      }
    }
  }
  std::stable_sort(bids.begin(), bids.end(), [](const Bid& a, const Bid& b) {
    return a.density > b.density;
  });

  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (const Bid& bid : bids) {
    if (allocation.bundles[bid.bidder] != kEmptyBundle) continue;
    if (fits_asymmetric(instance, allocation.bundles, bid.bidder, bid.bundle)) {
      allocation.bundles[bid.bidder] = bid.bundle;
    }
  }
  return allocation;
}

}  // namespace ssa
