#pragma once
/// \file histogram.hpp
/// Mergeable log-bucketed latency histogram: the telemetry primitive behind
/// obs::Histogram (obs/registry.hpp). Values are seconds on a logarithmic
/// bucket grid -- kBucketsPerOctave buckets per factor of two starting at
/// kMinSeconds -- so one fixed-size array spans nanoseconds to hours with a
/// bounded relative quantile error (kRelativeError, ~4.5% at 8 buckets per
/// octave when quantile() answers with the bucket's geometric midpoint).
///
/// Bucket counts are integers, so merge() is exact: merging per-thread
/// histograms is associative and commutative bucket-for-bucket, which is
/// what lets obs::Histogram record into per-thread stripes and the
/// FrontDoor fold its backends' snapshots without the merge order
/// mattering.
/// (The running sum_ is a double and therefore associative only up to
/// floating-point rounding; quantiles, count, min and max never depend
/// on it.)
///
/// Quantile semantics: quantile(q) locates the bucket holding the
/// ceil(q * count)-th smallest recorded value and returns that bucket's
/// geometric midpoint, clamped into [min(), max()] -- so p50/p99/p999 are
/// order statistics with bounded relative error, never interpolations that
/// can invent values no request experienced beyond the observed range.

#include <array>
#include <cstdint>

namespace ssa {

/// Fixed-size mergeable histogram over seconds; see the file comment.
class LatencyHistogram {
 public:
  /// Lower edge of the first finite bucket; everything at or below lands
  /// in bucket 0 (cache hits record 0.0 deliberately).
  static constexpr double kMinSeconds = 1e-9;
  /// Buckets per factor of two; the resolution/size trade-off knob.
  static constexpr int kBucketsPerOctave = 8;
  /// Octave span: 2^44 * 1e-9 s ~ 4.9 hours, beyond any sane latency.
  static constexpr int kOctaves = 44;
  static constexpr int kBucketCount = kOctaves * kBucketsPerOctave;

  /// Worst-case relative error of quantile() against the exact order
  /// statistic: half a bucket either way, 2^(1/(2*kBucketsPerOctave)) - 1.
  [[nodiscard]] static double relative_error() noexcept;

  /// Records one value; negative values clamp to 0 (bucket 0), values
  /// beyond the grid clamp into the last bucket. Never throws.
  void add(double seconds) noexcept;

  /// Element-wise accumulation of \p other into *this (exact on bucket
  /// counts -- see the file comment on associativity).
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Smallest/largest recorded value (0 when empty).
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// The ceil(q * count)-th smallest value, bucket-resolved and clamped
  /// into [min(), max()]; q outside (0, 1] clamps; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }

  /// Raw bucket counts (tests assert merge exactness element-wise).
  [[nodiscard]] const std::array<std::uint64_t, kBucketCount>& buckets()
      const noexcept {
    return buckets_;
  }

  /// Rebuilds a histogram from serialized state -- the telemetry wire
  /// codec's deserializer (wire/telemetry_codec.cpp). \p count must equal
  /// the bucket sum (the codec validates before calling).
  [[nodiscard]] static LatencyHistogram from_state(
      const std::array<std::uint64_t, kBucketCount>& buckets,
      std::uint64_t count, double sum, double min, double max) noexcept {
    LatencyHistogram histogram;
    histogram.buckets_ = buckets;
    histogram.count_ = count;
    histogram.sum_ = sum;
    histogram.min_ = min;
    histogram.max_ = max;
    return histogram;
  }

  [[nodiscard]] friend bool operator==(const LatencyHistogram&,
                                       const LatencyHistogram&) = default;

 private:
  [[nodiscard]] static int bucket_of(double seconds) noexcept;
  [[nodiscard]] static double bucket_midpoint(int bucket) noexcept;

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ssa
