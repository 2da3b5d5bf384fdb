// run_consensus edge cases: step-cap exhaustion, malformed proposal
// vectors, and the shape of the decisions vector when processes crash
// before deciding.
#include "algo/harness.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "algo/mr_consensus.hpp"
#include "exp/sweep.hpp"

namespace nucon {
namespace {

/// MR-majority's registry stack (Omega alone) over `fp`.
exp::AlgoOracles omega_of(const FailurePattern& fp, Time stabilize,
                          std::uint64_t seed) {
  return exp::AlgoOracles(exp::Algo::kMrMajority, fp, stabilize,
                          FaultyQuorumBehavior::kAdversarialDisjoint, seed);
}

TEST(HarnessTest, StepCapExhaustionReportsTerminationFailure) {
  // A step budget far below what any decision needs: the run is cut off,
  // the verdict must say termination failed, and nothing may have decided.
  const Pid n = 5;
  const FailurePattern fp(n);
  exp::AlgoOracles oracle = omega_of(fp, /*stabilize=*/1'000, 7);
  SchedulerOptions opts;
  opts.seed = 3;
  opts.max_steps = 40;

  const ConsensusRunStats stats = run_consensus(
      fp, oracle.top(), make_mr_majority(n), mixed_proposals(n), opts);

  EXPECT_FALSE(stats.verdict.termination);
  EXPECT_FALSE(stats.verdict.solves_nonuniform());
  EXPECT_FALSE(stats.verdict.solves_uniform());
  EXPECT_FALSE(stats.all_correct_decided);
  EXPECT_LE(stats.steps, 40u);
  EXPECT_EQ(stats.decide_round, 0);
  ASSERT_EQ(stats.decisions.size(), static_cast<std::size_t>(n));
  for (const auto& d : stats.decisions) EXPECT_FALSE(d.has_value());
  // Vacuous agreement still holds: nobody decided, nobody disagreed.
  EXPECT_TRUE(stats.verdict.nonuniform_agreement);
}

TEST(HarnessTest, EmptyProposalVectorIsRejected) {
  const Pid n = 3;
  const FailurePattern fp(n);
  exp::AlgoOracles oracle = omega_of(fp, 50, 7);
  SchedulerOptions opts;
  opts.seed = 1;

  EXPECT_THROW((void)run_consensus(fp, oracle.top(), make_mr_majority(n),
                                   /*proposals=*/{}, opts),
               std::invalid_argument);
}

TEST(HarnessTest, WrongSizedProposalVectorIsRejected) {
  const Pid n = 4;
  const FailurePattern fp(n);
  exp::AlgoOracles oracle = omega_of(fp, 50, 7);
  SchedulerOptions opts;
  opts.seed = 1;

  EXPECT_THROW((void)run_consensus(fp, oracle.top(), make_mr_majority(n),
                                   mixed_proposals(n - 1), opts),
               std::invalid_argument);
  EXPECT_THROW((void)run_consensus(fp, oracle.top(), make_mr_majority(n),
                                   mixed_proposals(n + 1), opts),
               std::invalid_argument);
}

TEST(HarnessTest, ProcessCrashingBeforeDecidingLeavesNulloptSlot) {
  // p2 dies at t=1, long before any decision: the decisions vector keeps
  // one slot per process (crashed included), with p2's empty, and the
  // survivors still solve consensus.
  const Pid n = 3;
  FailurePattern fp(n);
  fp.set_crash(2, 1);
  exp::AlgoOracles oracle = omega_of(fp, /*stabilize=*/30, 7);

  SchedulerOptions opts;
  opts.seed = 11;
  opts.max_steps = 100'000;

  const ConsensusRunStats stats = run_consensus(
      fp, oracle.top(), make_mr_majority(n), mixed_proposals(n), opts);

  ASSERT_EQ(stats.decisions.size(), static_cast<std::size_t>(n));
  EXPECT_FALSE(stats.decisions[2].has_value());
  EXPECT_TRUE(stats.decisions[0].has_value());
  EXPECT_TRUE(stats.decisions[1].has_value());
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_uniform());
  EXPECT_GT(stats.decide_round, 0);
}

TEST(HarnessTest, AllProcessesCrashedYieldsAllEmptyDecisions) {
  // Everyone dies immediately: the scheduler stops once nobody can step,
  // decisions stay one-empty-slot-per-process, and with no correct process
  // the termination clause is vacuously satisfied.
  const Pid n = 3;
  FailurePattern fp(n);
  for (Pid p = 0; p < n; ++p) fp.set_crash(p, 1);
  exp::AlgoOracles oracle = omega_of(fp, /*stabilize=*/10, 5);

  SchedulerOptions opts;
  opts.seed = 2;
  opts.max_steps = 10'000;

  const ConsensusRunStats stats = run_consensus(
      fp, oracle.top(), make_mr_majority(n), mixed_proposals(n), opts);

  ASSERT_EQ(stats.decisions.size(), static_cast<std::size_t>(n));
  for (const auto& d : stats.decisions) EXPECT_FALSE(d.has_value());
  EXPECT_LT(stats.steps, 10'000u);  // cut short by universal death, not the cap
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.termination);
}

}  // namespace
}  // namespace nucon
