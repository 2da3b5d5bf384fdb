// Experiment E12: the register contrast (paper §1; Delporte et al.).
//
// The same ABD protocol run over different quorum detectors:
//   Sigma (kernel)        — atomic in EVERY environment;
//   Sigma (majorities)    — atomic while a majority is correct;
//   Sigma^nu benign       — atomic (the faulty modules happen to behave);
//   Sigma^nu adversarial  — atomicity violations appear (stale reads by
//                           the faulty-but-alive process): registers are
//                           inherently "uniform" objects, which is why the
//                           paper's proofs cannot route through them.
// Also reports the cost of an operation (steps and messages per op).
#include "bench_util.hpp"
#include "fd/sigma.hpp"
#include "reg/harness.hpp"

namespace nucon::bench {
namespace {

enum class RegOracle { kSigmaKernel, kSigmaMajority, kNuBenign, kNuAdversarial };

const char* oracle_name(RegOracle o) {
  switch (o) {
    case RegOracle::kSigmaKernel:
      return "Sigma (kernel)";
    case RegOracle::kSigmaMajority:
      return "Sigma (majority)";
    case RegOracle::kNuBenign:
      return "Sigma^nu benign";
    case RegOracle::kNuAdversarial:
      return "Sigma^nu adversarial";
  }
  return "?";
}

struct RegRow {
  int runs = 0;
  int done = 0;
  int violations = 0;
  Accumulator steps_per_op;
  Accumulator msgs_per_op;
};

RegRow run_register_family(RegOracle which, Pid n, Pid faults, int seeds) {
  RegRow row;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 1 + static_cast<std::uint64_t>(i);
    FailurePattern fp(n);
    // Late crashes: the interesting window is faulty-but-alive.
    {
      Rng rng(seed * 97 + 3);
      const ProcessSet victims =
          rng.pick_subset(ProcessSet::full(n), faults);
      for (Pid p : victims) fp.set_crash(p, 800 + rng.range(0, 100));
    }

    std::unique_ptr<Oracle> oracle;
    switch (which) {
      case RegOracle::kSigmaKernel: {
        SigmaOptions so;
        so.stabilize_at = 60;
        so.seed = seed;
        oracle = std::make_unique<SigmaOracle>(fp, so);
        break;
      }
      case RegOracle::kSigmaMajority: {
        SigmaOptions so;
        so.stabilize_at = 60;
        so.seed = seed;
        so.strategy = SigmaStrategy::kMajority;
        oracle = std::make_unique<SigmaOracle>(fp, so);
        break;
      }
      case RegOracle::kNuBenign:
      case RegOracle::kNuAdversarial: {
        SigmaNuOptions so;
        so.stabilize_at = 0;
        so.seed = seed;
        so.faulty = which == RegOracle::kNuBenign
                        ? FaultyQuorumBehavior::kBenign
                        : FaultyQuorumBehavior::kAdversarialDisjoint;
        oracle = std::make_unique<SigmaNuOracle>(fp, so);
        break;
      }
    }

    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = 120'000;
    const RegisterRunResult result = run_register_workload(
        fp, *oracle, alternating_workloads(n, 3), opts);

    ++row.runs;
    if (result.all_correct_done) ++row.done;
    if (!result.verdict.ok) ++row.violations;
    if (!result.records.empty()) {
      row.steps_per_op.add(static_cast<double>(result.steps) /
                           static_cast<double>(result.records.size()));
      row.msgs_per_op.add(static_cast<double>(result.messages_sent) /
                          static_cast<double>(result.records.size()));
    }
  }
  return row;
}

void experiments() {
  const int seeds = 25;
  TextTable t({"oracle", "n", "faults", "done", "atomicity_viol",
               "steps/op", "msgs/op"});
  for (Pid n : {4, 5}) {
    for (Pid faults : {static_cast<Pid>(1), static_cast<Pid>(n / 2)}) {
      for (const RegOracle which :
           {RegOracle::kSigmaKernel, RegOracle::kSigmaMajority,
            RegOracle::kNuBenign, RegOracle::kNuAdversarial}) {
        if (which == RegOracle::kSigmaMajority && 2 * faults >= n) continue;
        const RegRow r = run_register_family(which, n, faults, seeds);
        t.add_row({oracle_name(which), std::to_string(n),
                   std::to_string(faults),
                   std::to_string(r.done) + "/" + std::to_string(r.runs),
                   std::to_string(r.violations),
                   TextTable::fmt(r.steps_per_op.mean(), 1),
                   TextTable::fmt(r.msgs_per_op.mean(), 1)});
      }
    }
  }
  print_section(
      "E12: ABD register over quorum detectors — Sigma^nu cannot implement "
      "registers",
      t);
}

void BM_RegisterOp(benchmark::State& state) {
  const Pid n = static_cast<Pid>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const FailurePattern fp(n);
    SigmaOptions so;
    so.seed = seed;
    SigmaOracle oracle(fp, so);
    SchedulerOptions opts;
    opts.seed = seed++;
    opts.max_steps = 60'000;
    benchmark::DoNotOptimize(run_register_workload(
        fp, oracle, alternating_workloads(n, 2), opts));
  }
}
BENCHMARK(BM_RegisterOp)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "E12")
