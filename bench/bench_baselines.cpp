// Experiment E9: baseline comparison across the algorithm family.
//
// Same environments, same seeds: Mostéfaoui-Raynal with majorities and
// plain Omega (the §6.3 starting point), MR with Sigma quorums (uniform,
// any environment), Chandra-Toueg with <>S (the classical baseline), and
// A_nuc with (Omega, Sigma^nu+) (the paper's algorithm). Expected shape:
// all four terminate and agree under a correct majority, with n^2-per-round
// message costs; with a correct MINORITY only MR-Sigma and A_nuc
// terminate — the whole point of quorum detectors — and A_nuc pays extra
// bytes for piggybacked quorum histories and SAW/ACK traffic.
#include "bench_util.hpp"

namespace nucon::bench {
namespace {

// The rows' algorithms, in table order. Each runs on its registry stack
// (exp::AlgoOracles); Ben-Or's stack is the empty detector.
constexpr exp::Algo kAlgos[] = {exp::Algo::kMrMajority, exp::Algo::kMrSigma,
                                exp::Algo::kCt, exp::Algo::kAnuc,
                                exp::Algo::kBenOr};

struct AggRow {
  int runs = 0;
  int decided = 0;
  Accumulator rounds;
  Accumulator steps;
  Accumulator msgs;
  Accumulator bytes;
  bool safe = true;  // nonuniform agreement held in every run
};

AggRow run_algo(exp::Algo algo, Pid n, Pid faults, int seeds) {
  constexpr Time kStabilize = 120;
  AggRow agg;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(i);
    const FailurePattern fp = spread_crashes(n, faults, kStabilize - 20, seed);

    exp::AlgoOracles oracle(algo, fp, kStabilize, kAdversarial, seed);
    const ConsensusFactory make = exp::consensus_factory_of(algo, n, seed);

    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = 60'000;
    const ConsensusRunStats stats =
        run_consensus(fp, oracle.top(), make, mixed_proposals(n), opts);

    ++agg.runs;
    if (stats.all_correct_decided) {
      ++agg.decided;
      agg.rounds.add(stats.decide_round);
      agg.steps.add(static_cast<double>(stats.steps));
      agg.msgs.add(static_cast<double>(stats.messages_sent));
      agg.bytes.add(static_cast<double>(stats.bytes_sent));
    }
    agg.safe = agg.safe && stats.verdict.nonuniform_agreement;
  }
  return agg;
}

void add_rows(TextTable& t, Pid n, Pid faults, int seeds) {
  for (const exp::Algo algo : kAlgos) {
    const AggRow r = run_algo(algo, n, faults, seeds);
    t.add_row({exp::algo_name(algo), std::to_string(n), std::to_string(faults),
               std::to_string(r.decided) + "/" + std::to_string(r.runs),
               TextTable::fmt(r.rounds.mean(), 1),
               TextTable::fmt(r.steps.mean(), 0),
               TextTable::fmt(r.msgs.mean(), 0),
               TextTable::fmt(r.bytes.mean() / 1024.0, 1),
               r.safe ? "yes" : "NO"});
  }
}

void experiments() {
  const int seeds = 20;
  {
    TextTable t({"algorithm", "n", "faults", "decided", "round", "steps",
                 "msgs", "KB", "agree_ok"});
    add_rows(t, 5, 0, seeds);
    add_rows(t, 5, 1, seeds);
    add_rows(t, 5, 2, seeds);
    print_section("E9a: baselines under a correct majority (n=5)", t);
  }
  {
    TextTable t({"algorithm", "n", "faults", "decided", "round", "steps",
                 "msgs", "KB", "agree_ok"});
    // Correct minority: 3 of 5 crash. MR-majority and CT must stall
    // (decided 0/N); the quorum-detector algorithms keep terminating.
    add_rows(t, 5, 3, seeds / 2);
    add_rows(t, 5, 4, seeds / 2);
    print_section(
        "E9b: correct-minority environments — where quorum detectors earn "
        "their keep",
        t);
  }
}

void BM_ConsensusRound(benchmark::State& state) {
  const Pid n = 5;
  const exp::Algo algo = kAlgos[state.range(0)];
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const FailurePattern fp(n);
    exp::AlgoOracles oracle(algo, fp, 0, kAdversarial, seed);
    const ConsensusFactory make = exp::consensus_factory_of(algo, n, seed);
    SchedulerOptions opts;
    opts.seed = seed++;
    opts.max_steps = 60'000;
    benchmark::DoNotOptimize(
        run_consensus(fp, oracle.top(), make, mixed_proposals(n), opts));
  }
  state.SetLabel(exp::algo_name(algo));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsensusRound)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "E9")
