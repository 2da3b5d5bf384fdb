// Machine-readable sweep & bench reports, plus the markdown renderer.
//
// Three consumers, one model:
//
//   - SweepRunner::set_report_path(path) writes a versioned JSON report
//     of every sweep it executes (per-cell verdict counts, folded
//     metrics, failure artifacts with attached trace paths, wall-clock
//     per phase);
//   - every bench binary funnels its experiment tables and sweep results
//     through a BenchReport and writes BENCH_<name>.json;
//   - report_markdown() renders the same data as the markdown tables
//     EXPERIMENTS.md used to hand-maintain.
//
// Determinism contract: with include_timings=false, report_json() is a
// pure function of the folded sweep results — every field is produced by
// the serial expansion-order fold — so the string is bit-identical for
// any thread count. Wall-clock fields only exist behind the flag.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "prof/profiler.hpp"

namespace nucon::obs {

/// Report schema version, stamped as `"v"` into every emitted JSON
/// document and required by validate_report_json. v2 added the
/// "profiles" section (hot-path phase breakdowns).
inline constexpr std::int64_t kReportSchemaVersion = 2;

/// One folded sweep: verdict counts, cost means, metrics, failures.
struct SweepSection {
  std::string name;
  std::string spec;  // human-readable grid / points description

  std::int64_t runs = 0;
  std::int64_t undecided = 0;
  std::int64_t termination_failures = 0;
  std::int64_t uniform_violations = 0;
  std::int64_t nonuniform_violations = 0;
  std::int64_t expectation_failures = 0;

  double mean_decide_round = 0.0;
  double mean_steps = 0.0;
  double mean_messages = 0.0;
  double mean_kbytes = 0.0;

  trace::MetricsRegistry metrics;

  std::vector<std::string> failure_artifacts;
  /// Parallel to failure_artifacts; empty strings when no trace attached.
  std::vector<std::string> failure_trace_paths;

  /// Nondeterministic; emitted only with include_timings.
  double wall_seconds = 0.0;
  /// Simulated steps per wall-clock second of the parallel phase.
  /// Nondeterministic like wall_seconds; emitted only with include_timings.
  double steps_per_second = 0.0;
};

/// One experiment table, exactly as the bench printed it.
struct TableSection {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

/// One hot-path phase of a profile section (prof/profiler.hpp taxonomy).
/// seconds/ns_per_call/share are wall-clock — like wall_seconds they are
/// emitted only behind include_timings; calls alone is deterministic.
struct ProfilePhaseRow {
  std::string phase;
  std::int64_t calls = 0;
  double seconds = 0.0;
  double ns_per_call = 0.0;
  /// This phase's fraction of the step envelope.
  double share = 0.0;
};

/// Per-phase breakdown of one profiled workload (e.g. "anuc n=64"):
/// the kStep envelope plus the inner phases that partition it.
struct ProfileSection {
  std::string name;
  std::int64_t steps = 0;        ///< envelope calls
  double step_seconds = 0.0;     ///< total wall-clock inside the envelope
  double ns_per_step = 0.0;
  /// sum(inner phase time) / envelope time; the acceptance floor the
  /// prof tests pin is >= 0.9.
  double covered_fraction = 0.0;
  std::vector<ProfilePhaseRow> phases;  ///< inner phases only (no kStep)
};

struct BenchReport {
  std::string name;  // e.g. "E6" -> BENCH_E6.json
  std::vector<TableSection> tables;
  std::vector<SweepSection> sweeps;
  /// Hot-path phase breakdowns (nondeterministic timings; the whole
  /// section is emitted only behind include_timings).
  std::vector<ProfileSection> profiles;
  /// Named wall-clock phases (nondeterministic; include_timings only).
  std::map<std::string, double> timings;
};

/// Folds a whole SweepResult into a section (counts and means match the
/// aggregate bit for bit; failures carry their attached trace paths).
[[nodiscard]] SweepSection section_of(std::string name, std::string spec,
                                      const exp::SweepResult& result);

/// Folds the selected jobs only (e.g. one grid cell). Indices refer to
/// `jobs`; fold order is index order, so the result is deterministic.
[[nodiscard]] SweepSection section_of_jobs(
    std::string name, std::string spec,
    const std::vector<exp::JobOutcome>& jobs,
    const std::vector<std::size_t>& indices);

/// Renders a collector into a report section: the kStep envelope becomes
/// steps/step_seconds, every non-empty inner phase a ProfilePhaseRow.
[[nodiscard]] ProfileSection profile_section_of(
    std::string name, const prof::ProfileCollector& collector);

/// The JSON document. include_timings=false omits every wall-clock field,
/// leaving a string that is bit-identical for any thread count.
[[nodiscard]] std::string report_json(const BenchReport& report,
                                      bool include_timings = true);

/// Markdown rendering: one `##` section per report, `###` per table and
/// a summary table over the sweep sections.
[[nodiscard]] std::string report_markdown(const BenchReport& report);

/// Writes report_json(report, true) to `path`. Returns false, and writes
/// nothing, when the document fails validate_report_json (a NaN timing
/// renders as `nan`, which is not JSON); false on I/O failure too.
/// Atomic: the document is written to `path + ".tmp"` and renamed into
/// place, so an interrupted bench can never leave a truncated JSON behind
/// (re-runs replace the previous report either way).
bool write_report_json(const BenchReport& report, const std::string& path);

/// Structural validation of an emitted report: JSON syntax, schema
/// version, required keys with the right shapes. Returns the first
/// problem found, or nullopt when the document conforms.
[[nodiscard]] std::optional<std::string> validate_report_json(
    const std::string& json);

}  // namespace nucon::obs
