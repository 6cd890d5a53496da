#include "core/instance.hpp"

#include <algorithm>
#include <stdexcept>

namespace ssa {

namespace {
/// A zero valuation used by without_bidder.
class ZeroValuation final : public Valuation {
 public:
  explicit ZeroValuation(int num_channels) : Valuation(num_channels) {}
  [[nodiscard]] double value(Bundle) const override { return 0.0; }
  [[nodiscard]] DemandResult demand(std::span<const double>) const override {
    return DemandResult{};
  }
  [[nodiscard]] double max_value() const override { return 0.0; }
};
}  // namespace

AuctionInstance::AuctionInstance(ConflictGraph graph, Ordering order,
                                 int num_channels,
                                 std::vector<ValuationPtr> valuations,
                                 double rho)
    : graph_(std::move(graph)),
      order_(std::move(order)),
      k_(num_channels),
      rho_(rho),
      valuations_(std::move(valuations)) {
  if (valuations_.size() != graph_.size()) {
    throw std::invalid_argument("AuctionInstance: one valuation per vertex");
  }
  if (num_channels < 1 || num_channels > kMaxChannels) {
    throw std::invalid_argument("AuctionInstance: bad channel count");
  }
  for (const auto& valuation : valuations_) {
    if (!valuation || valuation->num_channels() != k_) {
      throw std::invalid_argument("AuctionInstance: valuation channel mismatch");
    }
  }
  position_ = ordering_positions(order_);
  graph_.ensure_adjacency();  // solve_batch and service workers share instances
  if (rho_ <= 0.0) rho_ = rho_of_ordering(graph_, order_).value;
  rho_ = std::max(rho_, 1.0);
  unweighted_ = graph_.is_unweighted();
}

double AuctionInstance::welfare(const Allocation& allocation) const {
  if (allocation.size() != num_bidders()) {
    throw std::invalid_argument("welfare: allocation size mismatch");
  }
  double total = 0.0;
  for (std::size_t v = 0; v < num_bidders(); ++v) {
    if (allocation.bundles[v] != kEmptyBundle) {
      total += value(v, allocation.bundles[v]);
    }
  }
  return total;
}

AuctionInstance AuctionInstance::with_valuation(std::size_t v,
                                                ValuationPtr valuation) const {
  std::vector<ValuationPtr> valuations = valuations_;
  valuations.at(v) = std::move(valuation);
  return AuctionInstance(graph_, order_, k_, std::move(valuations), rho_);
}

AuctionInstance AuctionInstance::without_bidder(std::size_t v) const {
  return with_valuation(v, std::make_shared<ZeroValuation>(k_));
}

}  // namespace ssa
