// Shared scaffolding for the experiment binaries.
//
// Every bench binary prints its experiment tables (the reproduction of the
// paper's results; see DESIGN.md §3 and EXPERIMENTS.md) before handing
// control to google-benchmark for the microbenchmark timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>

#include "algo/harness.hpp"
#include "exp/sweep.hpp"
#include "obs/report.hpp"
#include "util/stats.hpp"

namespace nucon::bench {

/// The faulty-quorum mode of every stack a table row does not vary. The
/// stacks themselves come from exp::AlgoOracles, the one builder the
/// sweeps, the fuzzer and perfbench use too.
inline constexpr FaultyQuorumBehavior kAdversarial =
    FaultyQuorumBehavior::kAdversarialDisjoint;

/// A failure pattern with `faults` crashes spread over [20, latest].
inline FailurePattern spread_crashes(Pid n, Pid faults, Time latest,
                                     std::uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 17);
  return Environment{n, static_cast<Pid>(n - 1)}.sample(rng, faults, latest);
}

/// The report this binary accumulates while run_experiments() executes.
/// NUCON_BENCH_MAIN names it and writes BENCH_<name>.json on exit
/// (obs/report.hpp schema).
inline obs::BenchReport& report() {
  static obs::BenchReport r;
  return r;
}

/// Prints a table and captures it into the report.
inline void print_section(const char* title, const TextTable& table) {
  std::printf("\n== %s ==\n%s", title, table.render().c_str());
  report().tables.push_back(
      obs::TableSection{title, table.headers(), table.rows()});
}

/// Captures one sweep's folded result (verdict counts, metrics, failure
/// artifacts) as a report section.
inline void record_sweep(std::string name, std::string spec,
                         const exp::SweepResult& result) {
  report().sweeps.push_back(
      obs::section_of(std::move(name), std::move(spec), result));
  report().timings["sweep:" + report().sweeps.back().name + ":execute"] =
      result.wall_seconds;
  report().timings["sweep:" + report().sweeps.back().name + ":fold"] =
      result.fold_seconds;
}

/// Captures one profiled workload's per-phase breakdown as a report
/// section (no-op for an empty collector, which recorded no step).
inline void record_profile(std::string name,
                           const prof::ProfileCollector& collector) {
  if (collector.empty()) return;
  report().profiles.push_back(
      obs::profile_section_of(std::move(name), collector));
}

inline int write_bench_report(const char* name) {
  report().name = name;
  const std::string path = std::string("BENCH_") + name + ".json";
  if (!obs::write_report_json(report(), path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nreport: %s\n", path.c_str());
  return 0;
}

}  // namespace nucon::bench

/// Each bench binary defines `run_experiments()` and uses this main. The
/// report_name string becomes BENCH_<report_name>.json in the working
/// directory, holding every table printed through print_section plus any
/// sweeps captured via record_sweep.
#define NUCON_BENCH_MAIN(run_experiments, report_name)          \
  int main(int argc, char** argv) {                             \
    run_experiments();                                          \
    if (nucon::bench::write_bench_report(report_name) != 0) {   \
      return 1;                                                 \
    }                                                           \
    benchmark::Initialize(&argc, argv);                         \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                 \
    }                                                           \
    benchmark::RunSpecifiedBenchmarks();                        \
    benchmark::Shutdown();                                      \
    return 0;                                                   \
  }
