// Replicated state machine over the library's consensus engines: uniform
// engines give all-replica prefix consistency; the nonuniform engine
// (A_nuc) guarantees it only among correct replicas — the operational
// meaning of the uniform/nonuniform distinction for a real system.
#include "smr/replicated_log.hpp"

#include <gtest/gtest.h>

#include "algo/mr_consensus.hpp"
#include "consensus_test_util.hpp"
#include "core/anuc.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;

std::vector<std::vector<Value>> streams(Pid n, int per_process) {
  std::vector<std::vector<Value>> out(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) {
    for (int i = 1; i <= per_process; ++i) {
      out[static_cast<std::size_t>(p)].push_back(make_command(p, i));
    }
  }
  return out;
}

/// Stops once every correct replica has committed every correct client's
/// command (faulty clients' commands are best-effort: they may crash
/// before even announcing them).
SchedulerOptions smr_opts(const FailurePattern& fp,
                          const std::vector<std::vector<Value>>& commands,
                          std::uint64_t seed) {
  std::vector<Value> required;
  for (Pid p : fp.correct()) {
    const auto& stream = commands[static_cast<std::size_t>(p)];
    required.insert(required.end(), stream.begin(), stream.end());
  }

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 400'000;
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
  return opts;
}

using SmrParam = testutil::SweepParam;

class SmrUniformSweep : public testing::TestWithParam<SmrParam> {};

TEST_P(SmrUniformSweep, MrSigmaEngineGivesUniformLog) {
  const auto [n, faults, seed] = GetParam();
  const FailurePattern fp = testutil::sweep_pattern({n, faults, seed}, 100);
  exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, 120, kAdversarial, seed);

  const auto commands = streams(n, 3);
  const SimResult sim =
      simulate(fp, oracle.top(),
               make_replicated_log(n, commands, make_mr_fd_quorum(n)),
               smr_opts(fp, commands, seed));

  ASSERT_TRUE(sim.stopped_by_predicate)
      << "correct replicas did not commit all commands under "
      << fp.to_string();
  const LogVerdict verdict = check_logs(fp, sim.automata, commands);
  EXPECT_TRUE(verdict.correct_prefix_consistent) << verdict.detail;
  EXPECT_TRUE(verdict.all_prefix_consistent) << verdict.detail;
  EXPECT_TRUE(verdict.only_submitted) << verdict.detail;
  EXPECT_TRUE(verdict.no_duplicates) << verdict.detail;

  // Every correct process's commands appear in every correct log.
  for (Pid p : fp.correct()) {
    const auto& log = static_cast<const ReplicatedLog*>(
                          sim.automata[static_cast<std::size_t>(p)].get())
                          ->log();
    for (Pid q : fp.correct()) {
      for (Value c : commands[static_cast<std::size_t>(q)]) {
        EXPECT_NE(std::find(log.begin(), log.end(), c), log.end())
            << "command " << c << " missing from replica " << p;
      }
    }
  }
}

std::vector<SmrParam> smr_params() {
  std::vector<SmrParam> out;
  for (Pid n : {3, 4, 5}) {
    for (Pid faults = 0; faults < n; ++faults) {
      out.push_back({n, faults, 1});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SmrUniformSweep,
                         testing::ValuesIn(smr_params()),
                         testutil::sweep_name);

TEST(SmrNonuniform, AnucEngineKeepsCorrectReplicasConsistent) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FailurePattern fp(4);
    fp.set_crash(3, 500);
    exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 120, kAdversarial, seed);

    const auto commands = streams(4, 2);
    const SimResult sim = simulate(
        fp, oracle.top(),
        make_replicated_log(4, commands, make_anuc(4),
                            /*trust_decided_catchup=*/false),
        smr_opts(fp, commands, seed));

    ASSERT_TRUE(sim.stopped_by_predicate) << "seed " << seed;
    const LogVerdict verdict = check_logs(fp, sim.automata, commands);
    EXPECT_TRUE(verdict.correct_prefix_consistent) << verdict.detail;
    EXPECT_TRUE(verdict.only_submitted) << verdict.detail;
    // all_prefix_consistent MAY fail (the faulty replica is allowed to
    // diverge before crashing) — that is the nonuniform contract, so no
    // assertion either way here; the bench tallies how often it happens.
  }
}

TEST(SmrNonuniform, NaiveCatchupUnderNonuniformEngineCanContaminate) {
  // The E15 lesson as a regression test: bolting the uniform-style
  // DECIDED catch-up onto the nonuniform engine lets a faulty replica's
  // divergent decision reach CORRECT replicas' logs. At least one seed in
  // this family must exhibit it (the fixed no-catch-up mode above never
  // does). About one seed in 60 does, so 400 seeds expect six.
  int contaminated = 0;
  for (std::uint64_t seed = 1; seed <= 400 && contaminated == 0; ++seed) {
    FailurePattern fp(3);
    fp.set_crash(2, 700);
    exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 150, kAdversarial, seed);
    const auto commands = streams(3, 3);
    const SimResult sim = simulate(
        fp, oracle.top(),
        make_replicated_log(3, commands, make_anuc(3),
                            /*trust_decided_catchup=*/true),
        smr_opts(fp, commands, seed));
    const LogVerdict verdict = check_logs(fp, sim.automata, commands);
    if (!verdict.correct_prefix_consistent) ++contaminated;
  }
  EXPECT_GT(contaminated, 0);
}

TEST(Smr, ReplicasAgreeOnOrderNotJustMembership) {
  const FailurePattern fp(3);
  exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, 0, kAdversarial, 3);
  const auto commands = streams(3, 4);
  const SimResult sim =
      simulate(fp, oracle.top(),
               make_replicated_log(3, commands, make_mr_fd_quorum(3)),
               smr_opts(fp, commands, 3));
  ASSERT_TRUE(sim.stopped_by_predicate);

  const auto& log0 =
      static_cast<const ReplicatedLog*>(sim.automata[0].get())->log();
  const auto& log1 =
      static_cast<const ReplicatedLog*>(sim.automata[1].get())->log();
  const std::size_t common = std::min(log0.size(), log1.size());
  EXPECT_GE(common, 12u);  // all 12 commands committed
  for (std::size_t i = 0; i < common; ++i) EXPECT_EQ(log0[i], log1[i]) << i;
}

TEST(Smr, DecidedForAnInstancePastIntIsDropped) {
  // Cut to int, instance 2^32 + 1 would be taken for instance 1.
  ReplicatedLog replica(0, 3, {make_command(0, 1)}, make_mr_fd_quorum(3));
  std::vector<Outgoing> out;
  replica.step(nullptr, FdValue{}, out);
  ASSERT_EQ(replica.instance(), 1);
  ByteWriter w;
  w.u8(1);  // DECIDED
  w.uvarint((std::uint64_t{1} << 32) + 1);
  w.svarint(make_command(1, 1));
  const Bytes decided = w.take();
  const Incoming in{1, decided};
  replica.step(&in, FdValue{}, out);
  EXPECT_TRUE(replica.log().empty());
  EXPECT_EQ(replica.instance(), 1);
}

TEST(Smr, MakeCommandIsInjective) {
  EXPECT_NE(make_command(0, 1), make_command(1, 1));
  EXPECT_NE(make_command(2, 3), make_command(3, 2));
  EXPECT_NE(make_command(0, 1), 0);  // never collides with the no-op
}

}  // namespace
}  // namespace nucon
