// Experiment E5 (paper Figs. 4-5, Theorem 6.27): cost of A_nuc.
//
// Reports rounds/steps/messages/bytes to global decision across system
// size, crash count and Omega stabilization time, plus distrust-machinery
// statistics. Expected shape: decisions land a constant number of rounds
// after the oracles stabilize; per-round message complexity is Theta(n^2)
// (three broadcast phases) plus the SAW/ACK handshakes; adversarial faulty
// quorums raise distrust hits without affecting safety or rounds much.
#include <thread>

#include "bench_util.hpp"
#include "core/anuc.hpp"
#include "exp/sweep.hpp"

namespace nucon::bench {
namespace {

struct AnucRow {
  ConsensusRunStats stats;
  std::int64_t distrust_calls = 0;
  std::int64_t distrust_hits = 0;
  std::size_t history_entries = 0;
};

AnucRow run_anuc(Pid n, Pid faults, Time stabilize, std::uint64_t seed,
                 FaultyQuorumBehavior behavior, Time crash_at = 0) {
  // crash_at > 0 pins all crashes late (so faulty processes participate —
  // and, under adversarial behavior, get distrusted — before dying).
  FailurePattern fp = spread_crashes(n, faults, std::max<Time>(stabilize - 10, 10), seed);
  if (crash_at > 0) {
    FailurePattern late(n);
    for (Pid p : fp.faulty()) late.set_crash(p, crash_at);
    fp = late;
  }
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, stabilize, behavior, seed);

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 400'000;

  AnucRow row;
  // run_consensus consumes the automata; rerun via simulate_consensus to
  // keep instrumentation.
  SimResult sim = simulate_consensus(fp, oracle.top(), make_anuc(n),
                                     mixed_proposals(n), opts);
  row.stats.decisions = decisions_of(sim.automata);
  row.stats.verdict = check_consensus(fp, mixed_proposals(n), row.stats.decisions);
  row.stats.messages_sent = sim.messages_sent;
  row.stats.bytes_sent = sim.bytes_sent;
  row.stats.steps = sim.run.steps.size();
  row.stats.all_correct_decided = all_correct_decided(fp, sim.automata);
  for (Pid p = 0; p < n; ++p) {
    const auto* a = static_cast<const Anuc*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    row.stats.max_round = std::max(row.stats.max_round, a->round());
    if (fp.is_correct(p)) {
      row.stats.decide_round =
          std::max(row.stats.decide_round, a->decided_round());
    }
    row.distrust_calls += a->distrust_calls();
    row.distrust_hits += a->distrust_hits();
    row.history_entries += a->history().size();
  }
  return row;
}

void add_anuc_row(TextTable& t, Pid n, Pid faults, Time stabilize,
                  std::uint64_t seed, FaultyQuorumBehavior behavior,
                  Time crash_at = 0) {
  const AnucRow r = run_anuc(n, faults, stabilize, seed, behavior, crash_at);
  t.add_row(
      {std::to_string(n), std::to_string(faults), std::to_string(stabilize),
       r.stats.all_correct_decided ? "yes" : "NO",
       std::to_string(r.stats.decide_round), std::to_string(r.stats.steps),
       std::to_string(r.stats.messages_sent),
       TextTable::fmt(static_cast<double>(r.stats.bytes_sent) / 1024.0, 1),
       std::to_string(r.distrust_hits),
       r.stats.verdict.solves_nonuniform() ? "yes" : "NO"});
}

void experiments() {
  {
    TextTable t({"n", "faults", "omega_stab", "decided", "round", "steps",
                 "msgs", "KB", "distrust_hits", "nonuniform_ok"});
    for (Pid n : {3, 4, 5, 7, 9}) {
      for (Pid faults : {static_cast<Pid>(0), static_cast<Pid>(n / 2),
                         static_cast<Pid>(n - 1)}) {
        add_anuc_row(t, n, faults, 120, 11,
                     FaultyQuorumBehavior::kAdversarialDisjoint);
      }
    }
    print_section("E5a: A_nuc cost vs system size and crashes (Figs. 4-5)", t);
  }

  {
    TextTable t({"n", "faults", "omega_stab", "decided", "round", "steps",
                 "msgs", "KB", "distrust_hits", "nonuniform_ok"});
    for (Time stabilize : {0, 100, 400, 1200}) {
      add_anuc_row(t, 4, 1, stabilize, 13,
                   FaultyQuorumBehavior::kAdversarialDisjoint);
    }
    print_section("E5b: A_nuc decision latency vs Omega stabilization", t);
  }

  {
    TextTable t({"n", "faults", "omega_stab", "decided", "round", "steps",
                 "msgs", "KB", "distrust_hits", "nonuniform_ok"});
    for (const auto behavior : {FaultyQuorumBehavior::kBenign,
                                FaultyQuorumBehavior::kNoise,
                                FaultyQuorumBehavior::kAdversarialDisjoint}) {
      // Late crashes (t=600): faulty processes are full participants while
      // their modules misbehave, so the distrust machinery actually fires.
      add_anuc_row(t, 5, 2, 120, 17, behavior, /*crash_at=*/600);
    }
    print_section("E5c: faulty-quorum behavior ablation (distrust at work)",
                  t);
  }

  {
    // E5d: the Fig. 4-5 sufficiency claim swept statistically on the
    // parallel engine — 240 grid points (n x faults x 20 seeds), with the
    // serial-vs-parallel wall clock. Aggregates are bit-identical for any
    // thread count (asserted by tests/sweep_test.cpp); the speedup column
    // is bounded by the machine's core count.
    exp::SweepGrid grid;
    grid.algos = {exp::Algo::kAnuc};
    grid.ns = {3, 5, 7, 9};
    grid.fault_counts = {0, 1, 2};
    grid.stabilizes = {120};
    grid.seed_begin = 1;
    grid.seed_count = 20;
    grid.max_steps = 400'000;

    exp::SweepRunner serial_runner(1);
    serial_runner.set_trace_dir("bench-traces/e5d");
    const exp::SweepResult serial = serial_runner.run(grid);
    const unsigned threads =
        std::max(4u, std::thread::hardware_concurrency());
    const exp::SweepResult parallel = exp::SweepRunner(threads).run(grid);

    TextTable t({"runs", "undecided", "nonuniform_viol", "mean_round",
                 "mean_msgs", "wall_1t_s", "wall_Nt_s", "threads",
                 "speedup"});
    const exp::SweepAggregate& agg = serial.aggregate;
    t.add_row({std::to_string(agg.runs), std::to_string(agg.undecided),
               std::to_string(agg.nonuniform_violations),
               TextTable::fmt(agg.decide_rounds.mean(), 1),
               TextTable::fmt(agg.messages.mean(), 0),
               TextTable::fmt(serial.wall_seconds, 2),
               TextTable::fmt(parallel.wall_seconds, 2),
               std::to_string(threads),
               TextTable::fmt(serial.wall_seconds /
                                  std::max(parallel.wall_seconds, 1e-9),
                              2)});
    print_section("E5d: A_nuc sufficiency sweep on the parallel engine", t);
    record_sweep("E5d", "anuc, n in {3,5,7,9}, faults in {0,1,2}, 20 seeds",
                 serial);
    std::printf(
        "E5d metrics: steps=%lld delivers=%lld (forced %lld) "
        "delay[p50=%lld p99=%lld max=%lld]\n",
        (long long)agg.metrics.counter_value("scheduler.steps"),
        (long long)agg.metrics.counter_value("scheduler.delivers"),
        (long long)agg.metrics.counter_value("scheduler.forced_deliveries"),
        (long long)agg.metrics.histograms().at("scheduler.delivery_delay")
            .quantile(0.5),
        (long long)agg.metrics.histograms().at("scheduler.delivery_delay")
            .quantile(0.99),
        (long long)agg.metrics.histograms().at("scheduler.delivery_delay")
            .max());
    for (std::size_t i = 0; i < agg.failures.size(); ++i) {
      std::printf("UNEXPECTED failure — replay with: nucon_explore --replay "
                  "'%s'\n",
                  agg.failures[i].to_string().c_str());
      if (i < agg.failure_trace_paths.size()) {
        std::printf("  trace attached: %s (inspect with trace_dump)\n",
                    agg.failure_trace_paths[i].c_str());
      }
    }
  }
}

void BM_AnucDecision(benchmark::State& state) {
  const Pid n = static_cast<Pid>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const FailurePattern fp(n);
    exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 0, kAdversarial, seed);
    SchedulerOptions opts;
    opts.seed = seed++;
    opts.max_steps = 200'000;
    SimResult sim = simulate_consensus(fp, oracle.top(), make_anuc(n),
                                       mixed_proposals(n), opts);
    benchmark::DoNotOptimize(sim.run.steps.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnucDecision)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_DistrustEvaluation(benchmark::State& state) {
  // Cost of distrusts() over a saturated quorum history.
  const Pid n = 8;
  QuorumHistory h(n);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    h.insert(static_cast<Pid>(rng.below(n)),
             rng.pick_subset(ProcessSet::full(n),
                             1 + static_cast<int>(rng.below(n))));
  }
  for (auto _ : state) {
    for (Pid q = 0; q < n; ++q) benchmark::DoNotOptimize(h.distrusts(0, q));
  }
}
BENCHMARK(BM_DistrustEvaluation);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "E5")
