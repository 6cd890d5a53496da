#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace ssa::obs {

namespace {

/// Merges two name-sorted (name, value) vectors, combining equal names
/// with \p combine. Linear two-pointer walk; output stays sorted.
template <typename V, typename Combine>
void merge_sorted(std::vector<std::pair<std::string, V>>& into,
                  const std::vector<std::pair<std::string, V>>& from,
                  Combine&& combine) {
  std::vector<std::pair<std::string, V>> out;
  out.reserve(into.size() + from.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < into.size() && j < from.size()) {
    if (into[i].first < from[j].first) {
      out.push_back(std::move(into[i++]));
    } else if (from[j].first < into[i].first) {
      out.push_back(from[j++]);
    } else {
      out.emplace_back(std::move(into[i].first),
                       combine(into[i].second, from[j].second));
      ++i;
      ++j;
    }
  }
  for (; i < into.size(); ++i) out.push_back(std::move(into[i]));
  for (; j < from.size(); ++j) out.push_back(from[j]);
  into = std::move(out);
}

}  // namespace

std::uint64_t TelemetrySnapshot::counter_or(std::string_view name,
                                            std::uint64_t fallback) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return fallback;
}

std::int64_t TelemetrySnapshot::gauge_or(std::string_view name,
                                         std::int64_t fallback) const {
  for (const auto& [key, value] : gauges) {
    if (key == name) return value;
  }
  return fallback;
}

void merge(TelemetrySnapshot& into, const TelemetrySnapshot& from) {
  merge_sorted(into.counters, from.counters,
               [](std::uint64_t a, std::uint64_t b) { return a + b; });
  merge_sorted(into.gauges, from.gauges,
               [](std::int64_t a, std::int64_t b) { return a + b; });
  merge_sorted(into.histograms, from.histograms,
               [](LatencyHistogram a, const LatencyHistogram& b) {
                 a.merge(b);  // integer buckets: exact, order-free
                 return a;
               });
  into.spans.insert(into.spans.end(), from.spans.begin(), from.spans.end());
}

std::string format(const TelemetrySnapshot& snapshot) {
  std::ostringstream out;
  out << "telemetry snapshot\n";
  if (!snapshot.counters.empty()) {
    out << "  counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      out << "    " << name << " = " << value << '\n';
    }
  }
  if (!snapshot.gauges.empty()) {
    out << "  gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out << "    " << name << " = " << value << '\n';
    }
  }
  if (!snapshot.histograms.empty()) {
    out << "  histograms:\n";
    for (const auto& [name, histogram] : snapshot.histograms) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "    %s: count=%llu mean=%.3gs p50=%.3gs p99=%.3gs",
                    name.c_str(),
                    static_cast<unsigned long long>(histogram.count()),
                    histogram.mean(), histogram.p50(), histogram.p99());
      out << line << '\n';
    }
  }
  if (!snapshot.spans.empty()) {
    // Span-tree sketch: group by trace, newest traces first, roots before
    // children (children indent under their parent when it is present in
    // the ring; orphans -- parent already overwritten -- print flat).
    std::map<std::uint64_t, std::vector<const SpanRecord*>> traces;
    for (const SpanRecord& span : snapshot.spans) {
      traces[span.trace_id].push_back(&span);
    }
    out << "  recent traces (" << traces.size() << " traces, "
        << snapshot.spans.size() << " spans):\n";
    std::size_t printed = 0;
    for (auto it = traces.rbegin(); it != traces.rend() && printed < 8; ++it) {
      out << "    trace " << std::hex << it->first << std::dec << ":\n";
      std::vector<const SpanRecord*> spans = it->second;
      std::sort(spans.begin(), spans.end(),
                [](const SpanRecord* a, const SpanRecord* b) {
                  return a->start_unix_seconds < b->start_unix_seconds;
                });
      for (const SpanRecord* span : spans) {
        const bool parent_present =
            std::any_of(spans.begin(), spans.end(), [&](const SpanRecord* s) {
              return s->span_id == span->parent_span_id;
            });
        out << (parent_present ? "        - " : "      - ") << span->name;
        if (!span->note.empty()) out << " [" << span->note << ']';
        char timing[48];
        std::snprintf(timing, sizeof timing, " (%.3g ms)",
                      span->duration_seconds * 1e3);
        out << timing << '\n';
      }
      ++printed;
    }
  }
  return out.str();
}

}  // namespace ssa::obs
