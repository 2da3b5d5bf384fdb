// Hot-path throughput baseline for the simulation core.
//
// Not a paper experiment: this bench measures the simulator itself, so the
// perf trajectory of the allocation overhaul (shared broadcast payloads,
// reusable encode scratch, record_run off in sweep workers) is pinned to
// numbers. Per registry algorithm it reports
//
//   steps/s     simulated automaton steps per wall-clock second,
//   delivers/s  message deliveries per wall-clock second,
//   B/bcast     payload bytes DEEP-COPIED per broadcast (post-overhaul),
//   pre B/bcast what copy-per-destination would have copied (copied+shared),
//   reduction   1 - copied/(copied+shared), the fraction of would-be copy
//               bytes the refcounted payloads eliminated.
//
// The broadcast-heavy algorithms (A_nuc, StackedNuc, and the DAG gossip
// inside StackedNuc) must show reduction >= (n-2)/(n-1): an n-1-way
// broadcast deep-copies at most one sealed scratch buffer where it used to
// copy n-1 times, and pure-move payloads (DAG gossip) copy nothing at all.
//
// NUCON_HOTPATH_QUICK=1 shrinks seeds and step budgets for CI
// (scripts/bench-quick.sh); the report schema is identical.
#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_util.hpp"
#include "prof/profiler.hpp"
#include "util/shared_bytes.hpp"

namespace nucon::bench {
namespace {

bool quick_mode() {
  const char* v = std::getenv("NUCON_HOTPATH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr exp::Algo kRegistry[] = {
    exp::Algo::kAnuc,      exp::Algo::kStacked, exp::Algo::kMrMajority,
    exp::Algo::kMrSigma,   exp::Algo::kNaive,   exp::Algo::kCt,
    exp::Algo::kBenOr,     exp::Algo::kFromScratch,
};

struct HotpathRow {
  double steps_per_second = 0.0;
  double delivers_per_second = 0.0;
  double copied_per_broadcast = 0.0;
  double prechange_per_broadcast = 0.0;
  /// 1 - copied/(copied+shared); 1.0 when nothing was copied at all.
  double copy_reduction = 1.0;
  std::int64_t steps = 0;
};

std::vector<exp::SweepPoint> points_for(exp::Algo algo, Pid n, int seeds,
                                        std::int64_t max_steps) {
  exp::SweepGrid grid;
  grid.algos = {algo};
  grid.ns = {n};
  grid.fault_counts = {1};
  grid.seed_count = seeds;
  grid.max_steps = max_steps;
  return grid.expand();
}

HotpathRow measure(exp::Algo algo, Pid n, int seeds, std::int64_t max_steps) {
  HotpathRow row;
  const PayloadCounters before = SharedBytes::counters();
  std::int64_t delivers = 0;

  const auto started = std::chrono::steady_clock::now();
  for (const exp::SweepPoint& pt : points_for(algo, n, seeds, max_steps)) {
    const ConsensusRunStats stats = exp::run_point(pt);
    row.steps += static_cast<std::int64_t>(stats.steps);
    delivers += stats.metrics.counter_value("scheduler.delivers");
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  const PayloadCounters c = SharedBytes::counters() - before;
  if (elapsed > 0.0) {
    row.steps_per_second = static_cast<double>(row.steps) / elapsed;
    row.delivers_per_second = static_cast<double>(delivers) / elapsed;
  }
  if (c.broadcasts > 0) {
    row.copied_per_broadcast = static_cast<double>(c.copied_bytes) /
                               static_cast<double>(c.broadcasts);
    row.prechange_per_broadcast =
        static_cast<double>(c.copied_bytes + c.shared_bytes) /
        static_cast<double>(c.broadcasts);
  }
  if (c.copied_bytes + c.shared_bytes > 0) {
    row.copy_reduction =
        1.0 - static_cast<double>(c.copied_bytes) /
                  static_cast<double>(c.copied_bytes + c.shared_bytes);
  }
  return row;
}

void experiments() {
  const bool quick = quick_mode();
  const Pid n = 6;
  const int seeds = quick ? 2 : 10;
  const std::int64_t max_steps = quick ? 20'000 : 100'000;

  {
    TextTable t({"algorithm", "steps/s", "delivers/s", "B/bcast",
                 "pre B/bcast", "reduction", "steps"});
    for (const exp::Algo algo : kRegistry) {
      const HotpathRow r = measure(algo, n, seeds, max_steps);
      t.add_row({exp::algo_name(algo), TextTable::fmt(r.steps_per_second, 0),
                 TextTable::fmt(r.delivers_per_second, 0),
                 TextTable::fmt(r.copied_per_broadcast, 1),
                 TextTable::fmt(r.prechange_per_broadcast, 1),
                 TextTable::fmt(r.copy_reduction, 3),
                 std::to_string(r.steps)});
    }
    print_section("H1: simulation-core throughput baseline (n=6, faults=1)",
                  t);
  }

  // One parallel sweep through the runner so the report also carries the
  // engine-level steps_per_second field next to wall_seconds.
  {
    exp::SweepGrid grid;
    grid.algos = {exp::Algo::kAnuc, exp::Algo::kMrSigma, exp::Algo::kCt};
    grid.ns = {5};
    grid.seed_count = quick ? 2 : 8;
    grid.max_steps = quick ? 20'000 : 60'000;
    exp::SweepRunner runner;
    runner.set_profiling(true);
    const exp::SweepResult result = runner.run(grid);
    record_sweep("hotpath-sweep", "3 algos x n=5, engine throughput", result);
    record_profile("hotpath-sweep", result.profile);
    TextTable t({"points", "wall_s", "steps/s"});
    t.add_row({std::to_string(result.jobs.size()),
               TextTable::fmt(result.wall_seconds, 3),
               TextTable::fmt(result.steps_per_second, 0)});
    print_section("H2: sweep-engine throughput (record_run off in workers)",
                  t);
  }

  // H3: where does a scheduler step go as n grows? One fresh collector per
  // n so each row is an independent per-phase breakdown; the same data
  // lands in the report's "profiles" section.
  // n stops at 64 here to keep per-phase rows cheap; the H4 table below
  // carries the wide-set regime (kMaxProcesses is now 1024).
  {
    const std::vector<Pid> ns =
        quick ? std::vector<Pid>{6, 16, 32} : std::vector<Pid>{6, 16, 32, 64};
    TextTable t({"n", "steps/s", "ns/step", "deliver", "oracle", "automaton",
                 "encode", "trace", "coverage"});
    for (const Pid pn : ns) {
      prof::ProfileCollector profile;
      const auto started = std::chrono::steady_clock::now();
      std::int64_t steps = 0;
      for (const exp::SweepPoint& pt :
           points_for(exp::Algo::kAnuc, pn, quick ? 1 : 3,
                      quick ? 10'000 : 50'000)) {
        steps += static_cast<std::int64_t>(exp::run_point(pt, &profile).steps);
      }
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - started)
                                 .count();
      // Precision 1, not 0: cheap phases land under 0.5 ns/call on fast
      // machines and a 0-precision column would render them as "0",
      // indistinguishable from "never measured" (the S1 rendering bug).
      const auto phase_ns = [&profile](prof::Phase ph) {
        return TextTable::fmt(profile.ns_per_call(ph), 1);
      };
      t.add_row({std::to_string(pn),
                 TextTable::fmt(elapsed > 0.0
                                    ? static_cast<double>(steps) / elapsed
                                    : 0.0,
                                0),
                 TextTable::fmt(profile.ns_per_call(prof::Phase::kStep), 1),
                 phase_ns(prof::Phase::kDeliveryChoice),
                 phase_ns(prof::Phase::kOracleSample),
                 phase_ns(prof::Phase::kAutomatonStep),
                 phase_ns(prof::Phase::kPayloadEncode),
                 phase_ns(prof::Phase::kTraceHook),
                 TextTable::fmt(profile.covered_fraction(), 3)});
      record_profile("anuc-n" + std::to_string(pn), profile);
    }
    print_section("H3: per-phase step breakdown vs n (A_nuc, ns per call)",
                  t);
  }

  // H4: end-to-end A_nuc scaling into the wide-ProcessSet regime. The
  // step budget grows ~n^2 (message count per round does) so the large
  // rows measure a completed consensus, not a truncation; small n runs
  // enough seeds to push each row's wall time past the steady-clock
  // noise floor (decide lands at ~10.5n^2 steps, so ~300k steps per row
  // keeps each steps/s figure above timer jitter — a single n=16 run
  // finishes in ~2 ms).
  // Unlike H1-H3 these rows set the quorum redraw interval past the step
  // budget (hold = budget ticks, one window spanning the whole run): at
  // the default hold=8 the detector redraws its quorum dozens of times
  // per round forever, so histories grow with every await step and the
  // decide precondition seen[Q] < k waits on a random quorum repeat —
  // that regime measures noise accumulation, not scale. A single window
  // is the fully stabilized post-GST limit the paper's eventual detectors
  // converge to (each process's quorum flips once, from the noisy to the
  // stable draw, at stabilization): decide lands at ~10n^2 steps and n
  // itself is the only variable.
  // The "decided" column is the completion proof for n=256 and n=1000.
  // n=128 is perfbench's `anuc-stable` configuration (n, faults, budget
  // and hold), on the grid's own seed.
  {
    const std::vector<Pid> ns =
        quick ? std::vector<Pid>{6, 16, 32, 64}
              : std::vector<Pid>{6, 16, 32, 64, 128, 256, 1000};
    TextTable t({"n", "steps/s", "ns/step", "steps", "decided", "wall_s"});
    for (const Pid pn : ns) {
      const std::int64_t budget =
          std::max<std::int64_t>(50'000, 40LL * pn * pn);
      const int row_seeds = static_cast<int>(std::clamp<std::int64_t>(
          300'000 / (11LL * pn * pn), 1, 64));
      const auto started = std::chrono::steady_clock::now();
      std::int64_t steps = 0;
      bool decided = true;
      for (exp::SweepPoint pt :
           points_for(exp::Algo::kAnuc, pn, row_seeds, budget)) {
        pt.hold = budget;
        const ConsensusRunStats stats = exp::run_point(pt);
        steps += static_cast<std::int64_t>(stats.steps);
        decided = decided && stats.all_correct_decided;
      }
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - started)
                                 .count();
      const double sps =
          elapsed > 0.0 ? static_cast<double>(steps) / elapsed : 0.0;
      t.add_row({std::to_string(pn), TextTable::fmt(sps, 0),
                 TextTable::fmt(sps > 0.0 ? 1e9 / sps : 0.0, 1),
                 std::to_string(steps), decided ? "yes" : "no",
                 TextTable::fmt(elapsed, 3)});
    }
    print_section("H4: A_nuc scaling into the wide-set regime (steps/s vs n)",
                  t);
  }
}

void BM_RunPoint(benchmark::State& state) {
  const auto algo = static_cast<exp::Algo>(state.range(0));
  exp::SweepPoint pt;
  pt.algo = algo;
  pt.n = 6;
  pt.max_steps = 20'000;
  std::int64_t steps = 0;
  for (auto _ : state) {
    pt.seed += 1;
    const ConsensusRunStats stats = exp::run_point(pt);
    steps += static_cast<std::int64_t>(stats.steps);
    benchmark::DoNotOptimize(stats.steps);
  }
  state.SetLabel(exp::algo_name(algo));
  state.SetItemsProcessed(steps);  // items/s == simulated steps/s
}
BENCHMARK(BM_RunPoint)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "hotpath")
