// Scale checks at the top of the supported range: the bitmask ProcessSet
// representation promises n up to 64; the core algorithms must actually
// work there, not just at the n <= 9 sizes the experiment sweeps use.
#include <gtest/gtest.h>

#include "algo/mr_consensus.hpp"
#include "consensus_test_util.hpp"
#include "fd/history.hpp"
#include "fd/impl/heartbeat.hpp"
#include "fd/scripted.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;

TEST(Scale, MrSigmaAtSixteenProcesses) {
  FailurePattern fp(16);
  for (Pid p = 12; p < 16; ++p) fp.set_crash(p, 40 + p);
  exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, 100, kAdversarial, 1);
  SchedulerOptions opts;
  opts.seed = 1;
  opts.max_steps = 300'000;
  const auto stats = run_consensus(fp, oracle.top(), make_mr_fd_quorum(16),
                                   mixed_proposals(16), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

TEST(Scale, MrSigmaAtFortyEightProcessesCorrectMinority) {
  // 30 of 48 crash: quorum detectors keep working where majorities die.
  FailurePattern fp(48);
  for (Pid p = 18; p < 48; ++p) fp.set_crash(p, 30 + p);
  exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, 150, kAdversarial, 2);
  SchedulerOptions opts;
  opts.seed = 2;
  opts.max_steps = 600'000;
  const auto stats = run_consensus(fp, oracle.top(), make_mr_fd_quorum(48),
                                   mixed_proposals(48), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

TEST(Scale, MrMajorityAtSixtyFourProcesses) {
  // The full supported width.
  FailurePattern fp(64);
  for (Pid p = 50; p < 64; ++p) fp.set_crash(p, 60);
  exp::AlgoOracles oracle(exp::Algo::kMrMajority, fp, 150, kAdversarial, 3);
  SchedulerOptions opts;
  opts.seed = 3;
  opts.max_steps = 600'000;
  const auto stats = run_consensus(fp, oracle.top(), make_mr_majority(64),
                                   mixed_proposals(64), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

TEST(Scale, OmegaElectionAtThirtyTwoProcesses) {
  FailurePattern fp(32);
  for (Pid p = 0; p < 8; ++p) fp.set_crash(p, 100 + 5 * p);

  ScriptedOracle no_fd([](Pid, Time) { return FdValue{}; });
  RecordedHistory emulated;
  SchedulerOptions opts;
  opts.seed = 4;
  opts.max_steps = 200'000;
  opts.record_run = false;
  opts.on_step = [&emulated](const StepRecord& rec,
                             const std::vector<std::unique_ptr<Automaton>>& a) {
    const auto& hb = static_cast<const HeartbeatFd&>(
        *a[static_cast<std::size_t>(rec.p)]);
    emulated.add(rec.p, rec.t, hb.output());
  };
  (void)simulate(fp, no_fd, make_heartbeat_fd(32, HeartbeatMode::kOmega),
                 opts);

  const auto result = check_omega(emulated, fp);
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_EQ(emulated.samples().back().value.leader(), 8);
}

}  // namespace
}  // namespace nucon
