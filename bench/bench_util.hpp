#pragma once
/// \file bench_util.hpp
/// Shared helpers for the experiment binaries: every bench prints the
/// series it measures as a table (these are the "rows" EXPERIMENTS.md
/// records) and then runs its google-benchmark timings. Benches that call
/// record() additionally emit a machine-readable BENCH_<name>.json next to
/// the working directory, so the perf trajectory (wall time, welfare,
/// solver key per measured row) can be tracked across PRs by tooling
/// instead of table-scraping.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "support/table.hpp"

namespace ssa::bench {

/// Build provenance stamped into every BENCH_*.json: archived records must
/// stay attributable to the code and build flavor that produced them (a
/// Debug or sanitizer number is not comparable to a Release one). The
/// CMake bench targets define SSA_BUILD_TYPE/SSA_GIT_SHA; a bare compile
/// falls back to the NDEBUG-derived flavor and "unknown".
inline std::string build_type() {
#ifdef SSA_BUILD_TYPE
  return SSA_BUILD_TYPE;
#elif defined(NDEBUG)
  return "Release";
#else
  return "Debug";
#endif
}

inline std::string git_sha() {
#ifdef SSA_GIT_SHA
  return SSA_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Wall-clock UTC timestamp in ISO-8601 ("2026-08-08T12:34:56Z"), taken
/// when the JSON is written (i.e. after the measured phases ran).
inline std::string iso_timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

/// One machine-readable measurement row.
struct BenchRecord {
  std::string name;           ///< row identifier, e.g. "e11/shards=4"
  double wall_seconds = 0.0;  ///< measured wall time of the row
  double welfare = 0.0;       ///< welfare the row produced (0 if n/a)
  std::string solver;         ///< registry key (or "auto"/"mixed")
  /// Free-form extra metrics (requests/sec, cache hit rate, ...).
  std::vector<std::pair<std::string, double>> extra;
};

namespace detail {

inline std::vector<BenchRecord>& records() {
  static std::vector<BenchRecord> storage;
  return storage;
}

/// Minimal JSON string escaping (the fields we emit are ASCII labels).
inline std::string json_escaped(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Writes BENCH_<basename(argv0)>.json into the working directory; no file
/// when the bench recorded nothing.
inline void write_json(const char* argv0) {
  if (records().empty()) return;
  std::string name(argv0 == nullptr ? "bench" : argv0);
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_util: cannot write " << path << "\n";
    return;
  }
  out.precision(12);  // welfare sums need more than the default 6 digits
  out << "{\n  \"bench\": \"" << json_escaped(name) << "\",\n  \"build_type\": \""
      << json_escaped(build_type()) << "\",\n  \"git_sha\": \""
      << json_escaped(git_sha()) << "\",\n  \"timestamp\": \""
      << json_escaped(iso_timestamp_utc()) << "\",\n  \"records\": [";
  bool first_record = true;
  for (const BenchRecord& record : records()) {
    out << (first_record ? "\n" : ",\n");
    first_record = false;
    out << "    {\"name\": \"" << json_escaped(record.name)
        << "\", \"wall_seconds\": " << record.wall_seconds
        << ", \"welfare\": " << record.welfare << ", \"solver\": \""
        << json_escaped(record.solver) << "\"";
    for (const auto& [key, value] : record.extra) {
      out << ", \"" << json_escaped(key) << "\": " << value;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << path << " (" << records().size() << " records)\n";
}

}  // namespace detail

/// Registers one measurement row for the BENCH_*.json emitted by run().
inline void record(BenchRecord record) {
  detail::records().push_back(std::move(record));
}

/// Registers a row straight from a SolveReport: wall time, welfare and the
/// solver key (solver_selected when the execution layer filled it) come
/// from the report, extra metrics ride along. This is the one helper every
/// bench that measures solves goes through (e7/e10/e11), so the JSON rows
/// stay structurally identical across experiments instead of each bench
/// hand-assembling its own BenchRecord.
inline void record_report(
    std::string name, const SolveReport& report,
    std::vector<std::pair<std::string, double>> extra = {}) {
  record(BenchRecord{
      std::move(name), report.wall_time_seconds, report.welfare,
      report.solver_selected.empty() ? report.solver : report.solver_selected,
      std::move(extra)});
}

/// Upper median of \p values (0 when empty): the headline statistic of the
/// per-scenario ratio columns.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Prints the experiment table and a one-line verdict.
inline void print_experiment(const std::string& title, const Table& table,
                             const std::string& verdict) {
  table.print(std::cout, title);
  if (!verdict.empty()) std::cout << verdict << "\n";
  std::cout << std::endl;
}

/// Runs the experiment table printer, flushes the JSON records, then runs
/// google-benchmark.
/// Usage from main: return ssa::bench::run(argc, argv, [] { ...tables... });
template <typename TableFn>
int run(int argc, char** argv, const TableFn& tables) {
  tables();
  detail::write_json(argc > 0 ? argv[0] : nullptr);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ssa::bench
