#pragma once
/// \file registry.hpp
/// The process metrics registry of the observability subsystem (ssa::obs):
/// named counters, gauges and log-bucketed latency histograms behind
/// handle-based hot paths. A component looks its instruments up ONCE
/// (registration takes a registry-wide lock) and then increments through
/// the returned reference forever -- the handle is pointer-stable for the
/// registry's lifetime, and an increment is one relaxed atomic add on a
/// cache-line-padded stripe chosen by thread identity, so concurrent
/// writers on different cores do not bounce a shared line.
///
///     obs::Registry registry;
///     obs::Counter& hits = registry.counter("service.cache_hits");
///     hits.add();                        // hot path: one striped atomic add
///     obs::TelemetrySnapshot snap = registry.snapshot();
///
/// Exactness contract: counters and histograms are EXACT under concurrency
/// -- every add lands in some stripe, snapshot() sums the stripes, and
/// LatencyHistogram's integer bucket counts make the merge associative and
/// commutative. Snapshots of distinct registries (different processes, the
/// front door's backends) therefore merge exactly: merge() in
/// telemetry.hpp sums counters and gauges by name and folds histograms
/// bucket-for-bucket, and any merge order yields identical totals. Gauges
/// are point-in-time levels (queue depth, cache bytes); summing them
/// across processes reads as the fleet-wide level.
///
/// The registry also owns the span ring of its process/component
/// (span.hpp): snapshot() carries the recent spans next to the metric
/// values, which is what the kGetTelemetry wire frame exports.
///
/// Naming scheme: dot-separated "<component>.<metric>" lowercase names
/// ("service.cache_hits", "scheduler.queue_depth", "door.submits").
/// Histogram names end in a unit suffix ("service.solve_seconds"). Names
/// are the merge keys across processes, so components must not embed
/// per-process identifiers in them.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "support/histogram.hpp"

namespace ssa::obs {

namespace detail {

/// Stripes per instrument: enough that the handful of worker threads a
/// shard runs rarely collide, small enough that a snapshot sum is trivial.
inline constexpr std::size_t kStripes = 16;

/// Stable per-thread stripe index (thread-id hash); two threads may share
/// a stripe, which costs contention, never correctness.
[[nodiscard]] std::size_t stripe_of_this_thread() noexcept;

}  // namespace detail

/// Monotonic counter with striped relaxed adds; exact on read.
class Counter {
 public:
  /// Hot path: one relaxed atomic add on this thread's stripe.
  void add(std::uint64_t delta = 1) noexcept {
    stripes_[detail::stripe_of_this_thread()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Exact sum of every stripe. Reads concurrent with adds see each add
  /// either fully or not at all (each add is one atomic).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Rebases the counter to \p value (snapshot-restore zeroing). Not
  /// atomic against concurrent adds -- callers rebase only in quiescent
  /// phases (construction, restore), exactly like the atomics it replaced.
  void store(std::uint64_t value) noexcept {
    stripes_[0].value.store(value, std::memory_order_relaxed);
    for (std::size_t i = 1; i < detail::kStripes; ++i) {
      stripes_[i].value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  Stripe stripes_[detail::kStripes];
};

/// Point-in-time signed level (queue depth, cache bytes): set/add/sub on
/// one atomic -- gauges are low-rate by nature, striping buys nothing.
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta = 1) noexcept {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Striped LatencyHistogram: record() takes ONE stripe's mutex (almost
/// always uncontended -- stripes are picked by thread), snapshot() merges
/// the stripes exactly. Every stripe is one log-bucketed
/// LatencyHistogram (support/histogram.hpp), so the snapshots of every
/// component merge and compare on one grid.
class Histogram {
 public:
  void record(double seconds) noexcept {
    Stripe& stripe = stripes_[detail::stripe_of_this_thread()];
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.histogram.add(seconds);
  }

  /// Exact bucket-wise merge of every stripe.
  [[nodiscard]] LatencyHistogram snapshot() const {
    LatencyHistogram merged;
    for (const Stripe& stripe : stripes_) {
      const std::lock_guard<std::mutex> lock(stripe.mutex);
      merged.merge(stripe.histogram);
    }
    return merged;
  }

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    LatencyHistogram histogram;
  };
  Stripe stripes_[detail::kStripes];
};

struct RegistryOptions {
  /// Capacity of the span ring (recent spans kept for export); 0 disables
  /// span recording entirely (record() becomes a no-op).
  std::size_t span_capacity = kDefaultSpanCapacity;
};

/// Named-instrument registry; one per process or per serving component
/// (AuctionService and FrontDoor each own one, so in-process multi-backend
/// tests see the same per-component snapshots a multi-process deployment
/// would). Thread-safe throughout; instrument handles are pointer-stable
/// and outlive every lookup (they die with the registry).
class Registry {
 public:
  explicit Registry(RegistryOptions options = {}) : spans_(options.span_capacity) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named instrument. O(map) under a lock: call at
  /// setup time, keep the reference for the hot path.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// The registry's bounded span ring (span.hpp).
  [[nodiscard]] SpanRing& spans() noexcept { return spans_; }

  /// Point-in-time export: every instrument by name (sorted -- the codec
  /// golden pin depends on the order) plus the recent spans. Exactly
  /// mergeable with any other registry's snapshot (telemetry.hpp).
  [[nodiscard]] TelemetrySnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  // node-based maps: values never move, so handed-out references stay
  // valid across later registrations.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  SpanRing spans_;
};

}  // namespace ssa::obs
