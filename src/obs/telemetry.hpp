#pragma once
/// \file telemetry.hpp
/// The exported form of a registry: every instrument by name plus the
/// recent spans, as plain data -- the payload of the kGetTelemetry wire
/// frame (wire/telemetry_codec.hpp), the merge unit the FrontDoor folds
/// across its backends, and the object format() renders for the demo
/// --telemetry flag.
///
/// Merge contract: merge(into, from) is EXACT -- counters and gauges sum
/// by name, histograms fold bucket-for-bucket (LatencyHistogram's integer
/// buckets make this associative and commutative), spans concatenate.
/// Merging the same snapshots in any order or grouping therefore yields
/// identical metric totals (tests/test_obs.cpp pins associativity), which
/// is what makes a door-aggregated snapshot trustworthy: it reads as ONE
/// fleet-wide registry, not an approximation.
///
/// Instrument vectors are kept sorted by name (Registry::snapshot emits
/// them sorted; merge preserves sortedness), so the wire encoding of a
/// snapshot is canonical and golden-pinnable.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "support/histogram.hpp"

namespace ssa::obs {

/// Point-in-time registry export; see the file comment.
struct TelemetrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;
  std::vector<SpanRecord> spans;

  /// Named counter's value, 0 when absent (exporter/test convenience).
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;
  /// Named gauge's value, \p fallback when absent.
  [[nodiscard]] std::int64_t gauge_or(std::string_view name,
                                      std::int64_t fallback = 0) const;
};

/// Exact accumulation of \p from into \p into (see the file comment).
void merge(TelemetrySnapshot& into, const TelemetrySnapshot& from);

/// Human-readable multi-line rendering (the demos' --telemetry output):
/// aligned name/value tables and a span-tree sketch of the most recent
/// traces.
[[nodiscard]] std::string format(const TelemetrySnapshot& snapshot);

}  // namespace ssa::obs
