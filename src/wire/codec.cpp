#include "wire/codec.hpp"

#include "service/auction_service.hpp"

namespace ssa::wire {

namespace {

// -- allocation / LP / mechanism payload codecs -----------------------------
// The field order below is load-bearing twice over: it IS the result-cache
// snapshot layout (ResultCache::kSnapshotVersion pins it on disk) and the
// wire report layout (kWireVersion pins it on the network). Change the
// order or widths only together with a version bump on both.

void write_allocation(Writer& writer, const Allocation& allocation) {
  writer.vec(allocation.bundles, [&](Bundle bundle) { writer.u32(bundle); });
}

Allocation read_allocation(Reader& reader) {
  Allocation allocation;
  allocation.bundles =
      reader.vec<Bundle>([&] { return static_cast<Bundle>(reader.u32()); });
  return allocation;
}

void write_fractional(Writer& writer, const FractionalSolution& fractional) {
  writer.u8(static_cast<std::uint8_t>(fractional.status));
  writer.f64(fractional.objective);
  writer.vec(fractional.columns, [&](const FractionalColumn& column) {
    writer.u32(static_cast<std::uint32_t>(column.bidder));
    writer.u32(column.bundle);
    writer.f64(column.x);
  });
}

FractionalSolution read_fractional(Reader& reader) {
  FractionalSolution fractional;
  const std::uint8_t status = reader.u8();
  // Enum came off the wire/disk: reject values outside the range instead
  // of carrying a poisoned enum into the process.
  if (status > static_cast<std::uint8_t>(lp::SolveStatus::kTimeLimit)) {
    reader.fail();
    return fractional;
  }
  fractional.status = static_cast<lp::SolveStatus>(status);
  fractional.objective = reader.f64();
  fractional.columns = reader.vec<FractionalColumn>([&] {
    FractionalColumn column;
    column.bidder = static_cast<int>(reader.u32());
    column.bundle = static_cast<Bundle>(reader.u32());
    column.x = reader.f64();
    return column;
  });
  return fractional;
}

void write_mechanism(Writer& writer, const MechanismOutcome& outcome) {
  write_fractional(writer, outcome.vcg.optimum);
  write_doubles(writer, outcome.vcg.bidder_value);
  write_doubles(writer, outcome.vcg.payments);
  writer.vec(outcome.decomposition.entries,
             [&](const DecompositionEntry& entry) {
               write_allocation(writer, entry.allocation);
               writer.f64(entry.probability);
             });
  writer.f64(outcome.decomposition.alpha);
  writer.f64(outcome.decomposition.residual);
  writer.u32(static_cast<std::uint32_t>(outcome.decomposition.rounds));
  writer.u32(
      static_cast<std::uint32_t>(outcome.decomposition.columns_generated));
  writer.boolean(outcome.used_colgen);
  writer.u64(outcome.sampled_index);
  write_allocation(writer, outcome.allocation);
  write_doubles(writer, outcome.payments);
  write_doubles(writer, outcome.expected_payments);
}

MechanismOutcome read_mechanism(Reader& reader) {
  MechanismOutcome outcome;
  outcome.vcg.optimum = read_fractional(reader);
  outcome.vcg.bidder_value = read_doubles(reader);
  outcome.vcg.payments = read_doubles(reader);
  outcome.decomposition.entries = reader.vec<DecompositionEntry>([&] {
    DecompositionEntry entry;
    entry.allocation = read_allocation(reader);
    entry.probability = reader.f64();
    return entry;
  });
  outcome.decomposition.alpha = reader.f64();
  outcome.decomposition.residual = reader.f64();
  outcome.decomposition.rounds = static_cast<int>(reader.u32());
  outcome.decomposition.columns_generated = static_cast<int>(reader.u32());
  outcome.used_colgen = reader.boolean();
  outcome.sampled_index = static_cast<std::size_t>(reader.u64());
  outcome.allocation = read_allocation(reader);
  outcome.payments = read_doubles(reader);
  outcome.expected_payments = read_doubles(reader);
  return outcome;
}

}  // namespace

void write_doubles(Writer& writer, const std::vector<double>& values) {
  writer.vec(values, [&](double value) { writer.f64(value); });
}

std::vector<double> read_doubles(Reader& reader) {
  return reader.vec<double>([&] { return reader.f64(); });
}

// -- SolveOptions -----------------------------------------------------------

void write_options(Writer& writer, const SolveOptions& options) {
  writer.u64(options.seed);
  writer.f64(options.time_budget_seconds);
  writer.u32(0);  // retired thread-count slot, always 0 until the next version
  writer.u32(static_cast<std::uint32_t>(options.pipeline.rounding_repetitions));
  writer.boolean(options.pipeline.derandomize);
  writer.u64(options.pipeline.seed);
  writer.boolean(options.pipeline.force_column_generation);
  writer.u32(static_cast<std::uint32_t>(options.pipeline.explicit_limit));
  writer.f64(options.pipeline.time_budget_seconds);
  writer.i64(options.exact.node_budget);
  writer.u32(static_cast<std::uint32_t>(options.exact.max_channels));
  writer.boolean(options.mechanism.use_colgen);
  writer.u32(static_cast<std::uint32_t>(options.mechanism.explicit_limit));
  writer.f64(options.mechanism.decomposition.alpha);
  writer.u32(static_cast<std::uint32_t>(
      options.mechanism.decomposition.rounding_repetitions));
  writer.u32(static_cast<std::uint32_t>(
      options.mechanism.decomposition.max_rounds));
  writer.boolean(options.mechanism.decomposition.use_exact_pricing);
  writer.u64(options.mechanism.decomposition.seed);
  writer.u64(options.mechanism.sample_seed);
  // v4: the warm-start opt-out rides at the end of the options block.
  // warm_context is runtime-only and never crosses the wire.
  writer.boolean(options.warm_start);
}

SolveOptions read_options(Reader& reader) {
  SolveOptions options;
  options.seed = reader.u64();
  options.time_budget_seconds = reader.f64();
  (void)reader.u32();  // retired thread-count slot: read and dropped
  options.pipeline.rounding_repetitions = static_cast<int>(reader.u32());
  options.pipeline.derandomize = reader.boolean();
  options.pipeline.seed = reader.u64();
  options.pipeline.force_column_generation = reader.boolean();
  options.pipeline.explicit_limit = static_cast<int>(reader.u32());
  options.pipeline.time_budget_seconds = reader.f64();
  options.exact.node_budget = reader.i64();
  options.exact.max_channels = static_cast<int>(reader.u32());
  options.mechanism.use_colgen = reader.boolean();
  options.mechanism.explicit_limit = static_cast<int>(reader.u32());
  options.mechanism.decomposition.alpha = reader.f64();
  options.mechanism.decomposition.rounding_repetitions =
      static_cast<int>(reader.u32());
  options.mechanism.decomposition.max_rounds = static_cast<int>(reader.u32());
  options.mechanism.decomposition.use_exact_pricing = reader.boolean();
  options.mechanism.decomposition.seed = reader.u64();
  options.mechanism.sample_seed = reader.u64();
  options.warm_start = reader.boolean();
  if (reader.failed()) return SolveOptions{};
  return options;
}

// -- SolveReport ------------------------------------------------------------

void write_report(Writer& writer, const SolveReport& report) {
  writer.str(report.solver);
  writer.str(report.params);
  write_allocation(writer, report.allocation);
  writer.f64(report.welfare);
  writer.boolean(report.feasible);
  writer.f64(report.guarantee);
  writer.f64(report.factor);
  writer.boolean(report.lp_upper_bound.has_value());
  if (report.lp_upper_bound) writer.f64(*report.lp_upper_bound);
  writer.boolean(report.exact);
  writer.boolean(report.timed_out);
  writer.f64(report.wall_time_seconds);
  // v4 diagnostics: timing-class fields, zeroed by reports_payload_equal.
  writer.boolean(report.warm_started);
  writer.i64(report.pivots);
  // v5 diagnostics: column-generation run shape, likewise payload-excluded.
  writer.u32(report.oracle_rounds);
  writer.u32(report.columns_generated);
  writer.str(report.error);
  writer.str(report.solver_selected);
  writer.boolean(report.cache_hit);
  writer.f64(report.queue_wait_seconds);
  writer.u8(static_cast<std::uint8_t>(report.admission));
  writer.boolean(report.coalesced);
  writer.boolean(report.fractional.has_value());
  if (report.fractional) write_fractional(writer, *report.fractional);
  writer.boolean(report.mechanism.has_value());
  if (report.mechanism) write_mechanism(writer, *report.mechanism);
}

SolveReport read_report(Reader& reader) {
  SolveReport report;
  report.solver = reader.str();
  report.params = reader.str();
  report.allocation = read_allocation(reader);
  report.welfare = reader.f64();
  report.feasible = reader.boolean();
  report.guarantee = reader.f64();
  report.factor = reader.f64();
  if (reader.boolean()) report.lp_upper_bound = reader.f64();
  report.exact = reader.boolean();
  report.timed_out = reader.boolean();
  report.wall_time_seconds = reader.f64();
  report.warm_started = reader.boolean();
  report.pivots = reader.i64();
  report.oracle_rounds = reader.u32();
  report.columns_generated = reader.u32();
  report.error = reader.str();
  report.solver_selected = reader.str();
  report.cache_hit = reader.boolean();
  report.queue_wait_seconds = reader.f64();
  const std::uint8_t admission = reader.u8();
  if (admission > static_cast<std::uint8_t>(Admission::kRejected)) {
    reader.fail();
    return SolveReport{};
  }
  report.admission = static_cast<Admission>(admission);
  report.coalesced = reader.boolean();
  if (reader.boolean()) report.fractional = read_fractional(reader);
  if (reader.boolean()) report.mechanism = read_mechanism(reader);
  if (reader.failed()) return SolveReport{};
  return report;
}

// -- ServiceStats -----------------------------------------------------------

void write_stats(Writer& writer, const service::ServiceStats& stats) {
  writer.u64(stats.submitted);
  writer.u64(stats.completed);
  writer.u64(stats.cache_hits);
  writer.u64(stats.fallbacks);
  writer.u64(stats.coalesced);
  writer.u64(stats.admission_degraded);
  writer.u64(stats.admission_rejected);
  writer.u64(stats.timed_out);
  writer.u64(stats.warm_starts);
  writer.u64(stats.colgen_warm);
  writer.u64(stats.snapshot_restored);
  writer.u64(stats.cache_entries);
  writer.u64(stats.cache_bytes);
}

service::ServiceStats read_stats(Reader& reader) {
  service::ServiceStats stats;
  stats.submitted = reader.u64();
  stats.completed = reader.u64();
  stats.cache_hits = reader.u64();
  stats.fallbacks = reader.u64();
  stats.coalesced = reader.u64();
  stats.admission_degraded = reader.u64();
  stats.admission_rejected = reader.u64();
  stats.timed_out = reader.u64();
  stats.warm_starts = reader.u64();
  stats.colgen_warm = reader.u64();
  stats.snapshot_restored = reader.u64();
  stats.cache_entries = static_cast<std::size_t>(reader.u64());
  stats.cache_bytes = static_cast<std::size_t>(reader.u64());
  if (reader.failed()) return service::ServiceStats{};
  return stats;
}

bool reports_payload_equal(const SolveReport& a, const SolveReport& b) {
  // Compare through the codec: encoding covers every field bit-for-bit
  // (doubles as IEEE bit patterns), and zeroing the timing-class
  // diagnostics first excludes exactly the per-run noise -- including
  // warm_started/pivots, which is what lets the warm-start tests assert
  // "same payload" across cold and warm solves of one instance.
  const auto canonical = [](SolveReport report) {
    report.wall_time_seconds = 0.0;
    report.queue_wait_seconds = 0.0;
    report.warm_started = false;
    report.pivots = 0;
    report.oracle_rounds = 0;
    report.columns_generated = 0;
    Writer writer;
    write_report(writer, report);
    return writer.take();
  };
  return canonical(a) == canonical(b);
}

}  // namespace ssa::wire
