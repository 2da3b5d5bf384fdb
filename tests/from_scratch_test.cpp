// The full no-oracle consensus stack: heartbeat Omega, Sigma from a
// majority and MR, in one automaton.
#include "core/from_scratch.hpp"

#include <gtest/gtest.h>

#include "algo/harness.hpp"
#include "fd/scripted.hpp"

namespace nucon {
namespace {

ScriptedOracle no_fd() {
  return ScriptedOracle([](Pid, Time) { return FdValue{}; });
}

TEST(FromScratch, UniformConsensusWithNoOracleUnderMajority) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FailurePattern fp(5);
    if (seed > 1) fp.set_crash(static_cast<Pid>(seed), 100 * seed);

    auto oracle = no_fd();
    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = 200'000;
    const auto stats = run_consensus(fp, oracle, make_from_scratch(5, 2),
                                     {0, 1, 0, 1, 0}, opts);
    EXPECT_TRUE(stats.all_correct_decided) << "seed " << seed;
    EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
  }
}

TEST(FromScratch, SafetyHoldsEvenOutsideThePrecondition) {
  // 3 of 5 crash with t = 2: the Sigma layer's quorums can stop being
  // quorums, so termination may fail — but agreement must not.
  FailurePattern fp(5);
  fp.set_crash(2, 150);
  fp.set_crash(3, 150);
  fp.set_crash(4, 150);
  auto oracle = no_fd();
  SchedulerOptions opts;
  opts.seed = 9;
  opts.max_steps = 60'000;
  const auto stats = run_consensus(fp, oracle, make_from_scratch(5, 2),
                                   {0, 1, 0, 1, 0}, opts);
  EXPECT_TRUE(stats.verdict.uniform_agreement) << stats.verdict.detail;
  EXPECT_TRUE(stats.verdict.validity);
}

TEST(FromScratch, UnknownChannelBytesAreDropped) {
  FromScratchConsensus a(0, 1, 5, 2);
  std::vector<Outgoing> out;
  const Bytes junk = {0x09, 1, 2};
  const Incoming in{1, junk};
  a.step(&in, FdValue{}, out);
  EXPECT_FALSE(a.decision());
}

}  // namespace
}  // namespace nucon
