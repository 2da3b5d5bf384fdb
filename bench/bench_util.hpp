// Shared scaffolding for the experiment binaries.
//
// Every bench binary prints its experiment tables (the reproduction of the
// paper's results; see DESIGN.md §3 and EXPERIMENTS.md) before handing
// control to google-benchmark for the microbenchmark timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "algo/harness.hpp"
#include "exp/sweep.hpp"
#include "fd/classic.hpp"
#include "fd/composed.hpp"
#include "fd/omega.hpp"
#include "fd/sigma.hpp"
#include "fd/sigma_nu.hpp"
#include "obs/report.hpp"
#include "util/stats.hpp"

namespace nucon::bench {

/// Owns a composed oracle stack for one run.
struct OracleStack {
  std::unique_ptr<Oracle> first;
  std::unique_ptr<Oracle> second;
  std::unique_ptr<Oracle> composed;

  Oracle& top() { return composed ? *composed : *first; }
};

inline OracleStack omega_sigma_nu_plus(
    const FailurePattern& fp, Time stabilize, std::uint64_t seed,
    FaultyQuorumBehavior behavior = FaultyQuorumBehavior::kAdversarialDisjoint) {
  OracleStack s;
  OmegaOptions oo;
  oo.stabilize_at = stabilize;
  oo.seed = seed;
  s.first = std::make_unique<OmegaOracle>(fp, oo);
  SigmaNuPlusOptions so;
  so.stabilize_at = stabilize;
  so.seed = seed + 0x9e37;
  so.faulty = behavior;
  s.second = std::make_unique<SigmaNuPlusOracle>(fp, so);
  s.composed = std::make_unique<ComposedOracle>(*s.first, *s.second);
  return s;
}

inline OracleStack omega_sigma(const FailurePattern& fp, Time stabilize,
                               std::uint64_t seed) {
  OracleStack s;
  OmegaOptions oo;
  oo.stabilize_at = stabilize;
  oo.seed = seed;
  s.first = std::make_unique<OmegaOracle>(fp, oo);
  SigmaOptions so;
  so.stabilize_at = stabilize;
  so.seed = seed + 0x9e37;
  s.second = std::make_unique<SigmaOracle>(fp, so);
  s.composed = std::make_unique<ComposedOracle>(*s.first, *s.second);
  return s;
}

inline OracleStack omega_sigma_nu(const FailurePattern& fp, Time stabilize,
                                  std::uint64_t seed) {
  OracleStack s;
  OmegaOptions oo;
  oo.stabilize_at = stabilize;
  oo.seed = seed;
  s.first = std::make_unique<OmegaOracle>(fp, oo);
  SigmaNuOptions so;
  so.stabilize_at = stabilize;
  so.seed = seed + 0x9e37;
  s.second = std::make_unique<SigmaNuOracle>(fp, so);
  s.composed = std::make_unique<ComposedOracle>(*s.first, *s.second);
  return s;
}

inline OracleStack omega_only(const FailurePattern& fp, Time stabilize,
                              std::uint64_t seed) {
  OracleStack s;
  OmegaOptions oo;
  oo.stabilize_at = stabilize;
  oo.seed = seed;
  s.first = std::make_unique<OmegaOracle>(fp, oo);
  return s;
}

inline OracleStack evt_strong(const FailurePattern& fp, Time stabilize,
                              std::uint64_t seed) {
  OracleStack s;
  SuspectsOptions so;
  so.stabilize_at = stabilize;
  so.seed = seed;
  s.first = std::make_unique<EvtStrongOracle>(fp, so);
  return s;
}

/// A failure pattern with `faults` crashes spread over [20, latest].
inline FailurePattern spread_crashes(Pid n, Pid faults, Time latest,
                                     std::uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 17);
  return Environment{n, static_cast<Pid>(n - 1)}.sample(rng, faults, latest);
}

inline std::vector<Value> mixed_proposals(Pid n) {
  std::vector<Value> out(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) out[static_cast<std::size_t>(p)] = p % 2;
  return out;
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
