// Experiment E15: replicated state machine over the library's consensus
// engines — the downstream-systems view of the uniform/nonuniform
// distinction.
//
// A uniform engine (MR over Sigma) keeps EVERY replica's log
// prefix-consistent: clients can read any replica. The paper's nonuniform
// engine (A_nuc over adversarial Sigma^nu+) keeps only correct replicas
// consistent — a faulty-but-alive replica may serve a divergent log, which
// this experiment tallies. Also reports ordering throughput
// (steps per committed command).
#include "bench_util.hpp"
#include "algo/mr_consensus.hpp"
#include "smr/replicated_log.hpp"

namespace nucon::bench {
namespace {

std::vector<std::vector<Value>> streams(Pid n, int per_process) {
  std::vector<std::vector<Value>> out(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) {
    for (int i = 1; i <= per_process; ++i) {
      out[static_cast<std::size_t>(p)].push_back(make_command(p, i));
    }
  }
  return out;
}

struct SmrRow {
  int runs = 0;
  int completed = 0;
  int correct_divergence = 0;  // correct replicas inconsistent
  int faulty_divergence = 0;   // a faulty replica diverged (nonuniform ok)
  Accumulator steps_per_cmd;   // over completed runs
  Accumulator msgs_per_cmd;
};

enum class SmrMode { kUniform, kNonuniform, kNonuniformNaiveCatchup };

SmrRow run_smr(SmrMode mode, Pid n, Pid faults, int seeds) {
  const bool uniform_engine = mode == SmrMode::kUniform;
  SmrRow row;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 1 + static_cast<std::uint64_t>(i);
    FailurePattern fp(n);
    {
      // Late crashes: faulty replicas participate long enough to diverge.
      Rng rng(seed * 53 + 11);
      for (Pid p : rng.pick_subset(ProcessSet::full(n), faults)) {
        fp.set_crash(p, 600 + rng.range(0, 200));
      }
    }

    const exp::Algo algo =
        uniform_engine ? exp::Algo::kMrSigma : exp::Algo::kAnuc;
    exp::AlgoOracles oracle(algo, fp, 100, kAdversarial, seed);
    const ConsensusFactory engine = exp::consensus_factory_of(algo, n, seed);

    const auto commands = streams(n, 3);
    std::vector<Value> required;
    for (Pid p : fp.correct()) {
      const auto& s = commands[static_cast<std::size_t>(p)];
      required.insert(required.end(), s.begin(), s.end());
    }

    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = 300'000;
    opts.stop_when = [&fp, required](
                         const std::vector<std::unique_ptr<Automaton>>& all) {
      for (Pid p : fp.correct()) {
        const auto* replica = static_cast<const ReplicatedLog*>(
            all[static_cast<std::size_t>(p)].get());
        for (Value c : required) {
          if (!replica->has_committed(c)) return false;
        }
      }
      return true;
    };

    const bool catchup = mode != SmrMode::kNonuniform;
    const SimResult sim = simulate(
        fp, oracle.top(),
        make_replicated_log(n, commands, engine, catchup), opts);

    // Every run's logs are checked: a divergence can stall the run, so
    // checking only completed runs would hide the very rows that diverge.
    ++row.runs;
    const LogVerdict verdict = check_logs(fp, sim.automata, commands);
    if (!verdict.correct_prefix_consistent) ++row.correct_divergence;
    if (verdict.correct_prefix_consistent && !verdict.all_prefix_consistent) {
      ++row.faulty_divergence;
    }
    if (!sim.stopped_by_predicate) continue;
    ++row.completed;
    const double committed = static_cast<double>(required.size());
    row.steps_per_cmd.add(static_cast<double>(sim.run.steps.size()) / committed);
    row.msgs_per_cmd.add(static_cast<double>(sim.messages_sent) / committed);
  }
  return row;
}

void experiments() {
  const int seeds = 12;
  TextTable t({"engine", "n", "faults", "completed", "correct_diverge",
               "faulty_diverge", "steps/cmd", "msgs/cmd"});
  for (Pid n : {3, 5}) {
    for (Pid faults : {static_cast<Pid>(0), static_cast<Pid>(1),
                       static_cast<Pid>(n - 1)}) {
      for (const SmrMode mode :
           {SmrMode::kUniform, SmrMode::kNonuniform,
            SmrMode::kNonuniformNaiveCatchup}) {
        // (Sigma's kernel strategy exists in any environment, so the
        // uniform engine also covers the correct-minority rows.)
        const SmrRow r = run_smr(mode, n, faults, seeds);
        const char* name = mode == SmrMode::kUniform
                               ? "MR+Sigma, catch-up"
                               : (mode == SmrMode::kNonuniform
                                      ? "A_nuc, no catch-up"
                                      : "A_nuc, NAIVE catch-up");
        t.add_row({name, std::to_string(n), std::to_string(faults),
                   std::to_string(r.completed) + "/" + std::to_string(r.runs),
                   std::to_string(r.correct_divergence),
                   std::to_string(r.faulty_divergence),
                   TextTable::fmt(r.steps_per_cmd.mean(), 1),
                   TextTable::fmt(r.msgs_per_cmd.mean(), 1)});
      }
    }
  }
  print_section(
      "E15: replicated log — uniform engines protect clients of faulty "
      "replicas, nonuniform ones do not",
      t);
}

void BM_SmrCommandThroughput(benchmark::State& state) {
  const Pid n = static_cast<Pid>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const FailurePattern fp(n);
    exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, 0, kAdversarial, seed);
    const auto commands = streams(n, 2);
    SchedulerOptions opts;
    opts.seed = seed++;
    opts.max_steps = 150'000;
    benchmark::DoNotOptimize(simulate(
        fp, oracle.top(),
        make_replicated_log(n, commands, make_mr_fd_quorum(n)), opts));
  }
}
BENCHMARK(BM_SmrCommandThroughput)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "E15")
