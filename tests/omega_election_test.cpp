// Omega from scratch (adaptive-timeout heartbeats) and the full
// no-oracle consensus stack (Omega election + Sigma-from-majority + MR).
#include "core/omega_election.hpp"

#include <gtest/gtest.h>

#include "algo/harness.hpp"
#include "core/from_scratch.hpp"
#include "fd/history.hpp"
#include "fd/scripted.hpp"

namespace nucon {
namespace {

ScriptedOracle no_fd() {
  return ScriptedOracle([](Pid, Time) { return FdValue{}; });
}

struct ElectionParam {
  Pid n;
  Pid faults;
  std::uint64_t seed;
};

class OmegaElectionSweep : public testing::TestWithParam<ElectionParam> {};

TEST_P(OmegaElectionSweep, EmulatedHistoryIsInOmega) {
  const auto [n, faults, seed] = GetParam();
  Rng rng(seed * 50331653ULL);
  const FailurePattern fp =
      Environment{n, static_cast<Pid>(n - 1)}.sample(rng, faults, 200);

  auto oracle = no_fd();
  RecordedHistory emulated;
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 30'000;
  opts = with_emulation_recording(std::move(opts), emulated);
  (void)simulate(fp, oracle, make_omega_election(n), opts);

  ASSERT_FALSE(emulated.empty());
  const auto result = check_omega(emulated, fp);
  EXPECT_TRUE(result.ok) << result.detail << " under " << fp.to_string();
}

std::vector<ElectionParam> election_params() {
  std::vector<ElectionParam> out;
  for (Pid n : {2, 3, 5, 8}) {
    for (Pid faults = 0; faults < n; faults += (n > 4 ? 2 : 1)) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OmegaElectionSweep,
                         testing::ValuesIn(election_params()),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_f" +
                                  std::to_string(info.param.faults) + "_s" +
                                  std::to_string(info.param.seed);
                         });

TEST(OmegaElection, WorksWithCorrectMinority) {
  // Unlike quorums, leadership needs no majority: 1 correct of 5.
  FailurePattern fp(5);
  for (Pid p = 0; p < 4; ++p) fp.set_crash(p, 50 + 20 * p);

  auto oracle = no_fd();
  RecordedHistory emulated;
  SchedulerOptions opts;
  opts.seed = 3;
  opts.max_steps = 40'000;
  opts = with_emulation_recording(std::move(opts), emulated);
  (void)simulate(fp, oracle, make_omega_election(5), opts);

  const auto result = check_omega(emulated, fp);
  EXPECT_TRUE(result.ok) << result.detail;
  // The eventual leader must be process 4, the only correct one.
  EXPECT_EQ(emulated.samples().back().value.leader(), 4);
}

TEST(OmegaElection, FalseSuspicionsAreFinite) {
  const FailurePattern fp(4);
  auto oracle = no_fd();
  SchedulerOptions opts;
  opts.seed = 7;
  opts.max_steps = 40'000;
  const SimResult sim = simulate(fp, oracle, make_omega_election(4), opts);
  for (Pid p = 0; p < 4; ++p) {
    const auto* e = static_cast<const OmegaElection*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    // With everyone correct, suspicion noise settles: by the end nobody
    // is suspected and the backoff kept false suspicions small.
    EXPECT_TRUE(e->suspected().empty()) << p;
    EXPECT_LT(e->false_suspicions(), 64) << p;
  }
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
