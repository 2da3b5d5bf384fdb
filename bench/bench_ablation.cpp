// Experiment E11: ablation of A_nuc's two additions over the
// Mostéfaoui-Raynal skeleton (paper §6.3's design discussion).
//
//   - distrust OFF: adopting estimates from (and deciding with) processes
//     whose known quorums conflict — nonuniform agreement BREAKS under the
//     randomized adversarial family, like the naive algorithm's.
//   - quorum-awareness OFF (the "seen[Q] < k" decide guard): randomized
//     adversaries do NOT break it within the search budget. The reason is
//     instructive: quorum histories piggybacked on round-k proposals
//     usually already carry a quorum disjoint from the contaminator's, so
//     the distrust test fires anyway; the awareness handshake closes a
//     narrow timing window (a process deciding with a quorum it saw only
//     in the deciding round) that needs a coordinated scheduler+oracle
//     adversary, not random noise — which is why the paper must engineer
//     it in the proof of Lemma 6.25 rather than point to a generic run.
//
// Also reports the runtime cost each mechanism adds.
#include "bench_util.hpp"
#include "algo/naive_sigma_nu.hpp"
#include "core/anuc.hpp"

namespace nucon::bench {
namespace {

struct AblationRow {
  int violations = 0;
  int runs = 0;
  Accumulator rounds;
  Accumulator msgs;
  Accumulator bytes;
};

AblationRow run_variant(const AnucOptions& options, int seeds) {
  const ContaminationSetup setup;
  AblationRow row;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 1 + static_cast<std::uint64_t>(i);
    FailurePattern fp(setup.n);
    fp.set_crash(setup.faulty, setup.crash_at);
    exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, setup.omega_stabilize_at,
                            kAdversarial, seed);
    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = setup.max_steps;
    const ConsensusRunStats stats =
        run_consensus(fp, oracle.top(), make_anuc(setup.n, options),
                      mixed_proposals(setup.n), opts);
    ++row.runs;
    if (!stats.verdict.nonuniform_agreement) ++row.violations;
    if (stats.decide_round > 0) row.rounds.add(stats.decide_round);
    row.msgs.add(static_cast<double>(stats.messages_sent));
    row.bytes.add(static_cast<double>(stats.bytes_sent));
  }
  return row;
}

void experiments() {
  // The "no distrust" row rests on about one violation per 300 seeds, so
  // the range is wide enough to show it whatever the oracle seeds.
  const int seeds = 3000;
  TextTable t({"variant", "runs", "nonuniform_viol", "mean_round",
               "mean_msgs", "mean_KB"});
  const auto add = [&t, seeds](const char* name, AnucOptions options) {
    const AblationRow r = run_variant(options, seeds);
    t.add_row({name, std::to_string(r.runs), std::to_string(r.violations),
               TextTable::fmt(r.rounds.mean(), 1),
               TextTable::fmt(r.msgs.mean(), 0),
               TextTable::fmt(r.bytes.mean() / 1024.0, 1)});
  };

  add("full A_nuc", AnucOptions{});
  add("no distrust", AnucOptions{.use_distrust = false});
  add("no quorum-awareness", AnucOptions{.use_quorum_awareness = false});
  add("neither (MR skeleton + histories)",
      AnucOptions{.use_distrust = false, .use_quorum_awareness = false});
  print_section(
      "E11: A_nuc mechanism ablation under the §6.3 adversarial family", t);
  std::printf(
      "(A zero in the no-quorum-awareness row is expected: randomized\n"
      " adversaries do not hit its window — see the header comment and\n"
      " EXPERIMENTS.md; the distrust rows are the load-bearing result.)\n");
}

void BM_AnucVariant(benchmark::State& state) {
  AnucOptions options;
  options.use_distrust = state.range(0) != 0;
  options.use_quorum_awareness = state.range(1) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const FailurePattern fp(4);
    exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 0, kAdversarial, seed);
    SchedulerOptions opts;
    opts.seed = seed++;
    opts.max_steps = 60'000;
    benchmark::DoNotOptimize(run_consensus(fp, oracle.top(),
                                           make_anuc(4, options),
                                           mixed_proposals(4), opts));
  }
}
BENCHMARK(BM_AnucVariant)
    ->Args({1, 1})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "E11")
