// Mostéfaoui-Raynal family sweeps: the majority variant solves uniform
// consensus with Omega when a majority is correct; the Sigma-quorum
// variant solves uniform consensus in ANY environment (paper §6.3 lead-in
// and footnote 5).
#include "algo/mr_consensus.hpp"

#include <gtest/gtest.h>

#include "consensus_test_util.hpp"
#include "fd/composed.hpp"
#include "fd/omega.hpp"
#include "fd/sigma.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;
using testutil::SweepParam;

constexpr Time kStabilize = 120;
constexpr std::int64_t kMaxSteps = 120'000;

class MrMajoritySweep : public testing::TestWithParam<SweepParam> {};

TEST_P(MrMajoritySweep, SolvesUniformConsensusWithMajority) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  ASSERT_TRUE(is_majority(fp.correct(), fp.n()));
  exp::AlgoOracles oracle(exp::Algo::kMrMajority, fp, kStabilize, kAdversarial,
                          GetParam().seed);

  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = kMaxSteps;
  const auto stats =
      run_consensus(fp, oracle.top(), make_mr_majority(GetParam().n),
                    mixed_proposals(GetParam().n), opts);

  EXPECT_TRUE(stats.all_correct_decided) << fp.to_string();
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

std::vector<SweepParam> majority_params() {
  std::vector<SweepParam> out;
  for (Pid n : {3, 4, 5, 7}) {
    for (Pid faults = 0; 2 * faults < n; ++faults) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MrMajoritySweep,
                         testing::ValuesIn(majority_params()),
                         testutil::sweep_name);

class MrSigmaSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(MrSigmaSweep, SolvesUniformConsensusInAnyEnvironment) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, kStabilize, kAdversarial,
                          GetParam().seed);

  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = kMaxSteps;
  const auto stats =
      run_consensus(fp, oracle.top(), make_mr_fd_quorum(GetParam().n),
                    mixed_proposals(GetParam().n), opts);

  EXPECT_TRUE(stats.all_correct_decided) << fp.to_string();
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

std::vector<SweepParam> sigma_params() {
  std::vector<SweepParam> out;
  for (Pid n : {2, 3, 4, 5, 6}) {
    for (Pid faults = 0; faults < n; ++faults) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MrSigmaSweep, testing::ValuesIn(sigma_params()),
                         testutil::sweep_name);

TEST(MrSigma, MajorityStrategyOracleAlsoWorks) {
  FailurePattern fp(5);
  fp.set_crash(4, 60);
  // Built by hand: the registry's Sigma layer uses the kernel strategy.
  OmegaOptions oo;
  oo.stabilize_at = 100;
  oo.seed = 42;
  OmegaOracle omega(fp, oo);
  SigmaOptions so;
  so.stabilize_at = 100;
  so.seed = 42 + 0x9e37;
  so.strategy = SigmaStrategy::kMajority;
  SigmaOracle sigma(fp, so);
  ComposedOracle oracle(omega, sigma);
  SchedulerOptions opts;
  opts.seed = 42;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle, make_mr_fd_quorum(5),
                                   mixed_proposals(5), opts);
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

TEST(MrSigma, SurvivesCorrectMinority) {
  // Sigma (kernel strategy) exists even with 1 correct process out of 4;
  // MR-Sigma must still solve uniform consensus there. This is exactly
  // where MR-majority cannot terminate.
  FailurePattern fp(4);
  fp.set_crash(1, 30);
  fp.set_crash(2, 50);
  fp.set_crash(3, 70);
  exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, 100, kAdversarial, 5);
  SchedulerOptions opts;
  opts.seed = 5;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle.top(), make_mr_fd_quorum(4),
                                   mixed_proposals(4), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

TEST(MrMajority, BlocksWithoutCorrectMajority) {
  // Liveness counterpart: with 2 of 4 correct, the majority variant cannot
  // gather majorities after the crashes and never terminates.
  FailurePattern fp(4);
  fp.set_crash(2, 10);
  fp.set_crash(3, 10);
  exp::AlgoOracles oracle(exp::Algo::kMrMajority, fp, 50, kAdversarial, 6);
  SchedulerOptions opts;
  opts.seed = 6;
  opts.max_steps = 40'000;
  const auto stats = run_consensus(fp, oracle.top(), make_mr_majority(4),
                                   mixed_proposals(4), opts);
  EXPECT_FALSE(stats.all_correct_decided);
  // Safety is never violated even while blocked.
  EXPECT_TRUE(stats.verdict.uniform_agreement);
}

TEST(MrConsensus, RoundsAdvance) {
  const FailurePattern fp(3);
  exp::AlgoOracles oracle(exp::Algo::kMrMajority, fp, 0, kAdversarial, 7);
  SchedulerOptions opts;
  opts.seed = 7;
  opts.max_steps = 60'000;
  const auto stats = run_consensus(fp, oracle.top(), make_mr_majority(3),
                                   {4, 4, 4}, opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_GE(stats.decide_round, 1);
  EXPECT_LE(stats.decide_round, stats.max_round);
}

constexpr std::uint64_t kPastInt = (std::uint64_t{1} << 32) + 1;

TEST(MrConsensus, MessagesForARoundPastIntAreDropped) {
  // Cut to int, round 2^32 + 1 would be filed under round 1. The naive
  // algorithm is the kFdQuorum mode, so both modes are checked.
  for (const MrQuorumMode mode :
       {MrQuorumMode::kMajority, MrQuorumMode::kFdQuorum}) {
    MrConsensus a(0, 3, MrOptions{3, mode});
    std::vector<Outgoing> out;
    a.step(nullptr, FdValue{}, out);  // round 1, waiting for a leader
    const auto before = a.snapshot();
    for (const std::uint8_t tag : {1, 2, 3}) {  // LEAD, REP, PROP
      ByteWriter w;
      w.u8(tag);
      w.uvarint(kPastInt);
      w.svarint(5);
      const Bytes msg = w.take();
      const Incoming in{1, msg};
      out.clear();
      a.step(&in, FdValue{}, out);
      EXPECT_TRUE(out.empty());
      EXPECT_EQ(a.snapshot(), before) << "tag " << int{tag};
    }
  }
}

TEST(MrConsensus, RestoreRefusesARoundPastInt) {
  MrConsensus a(0, 3, MrOptions{3, MrQuorumMode::kMajority});
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  ASSERT_EQ(saved.at(1), 0x01);  // x = 3 is one varint byte, then round 1
  ByteWriter w;
  w.raw(ByteView(saved).first(1));
  w.uvarint(kPastInt);
  w.raw(ByteView(saved).subspan(2));

  MrConsensus b(0, 3, MrOptions{3, MrQuorumMode::kMajority});
  EXPECT_FALSE(b.restore(w.take()));
  ASSERT_TRUE(b.restore(saved));
  EXPECT_EQ(b.round(), 1);
}

TEST(MrConsensus, RestoreRefusesAFlagAboveOne) {
  MrConsensus a(0, 3, MrOptions{3, MrQuorumMode::kMajority});
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  // x = 3 and round 1 are one varint byte each, then the phase and
  // has_decided.
  const Bytes decided = testutil::with_decision(saved, 3, 1, 3);
  MrConsensus b(0, 3, MrOptions{3, MrQuorumMode::kMajority});
  ASSERT_TRUE(b.restore(decided));
  ASSERT_EQ(b.snapshot(), decided);

  // A has_decided of 2 would read as "decided" and re-save as 1.
  EXPECT_FALSE(b.restore(testutil::with_decision(saved, 3, 2, 3)));
}

TEST(MrConsensus, SnapshotChangesWithState) {
  MrConsensus a(0, 3, MrOptions{3, MrQuorumMode::kMajority});
  const auto before = a.snapshot();
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue::of_leader(1), out);
  const auto after = a.snapshot();
  EXPECT_NE(before, after);  // round counter moved
  EXPECT_FALSE(out.empty()); // the LEAD broadcast went out
}

}  // namespace
}  // namespace nucon
