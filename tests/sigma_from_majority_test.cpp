// Theorem 7.1, IF direction: with t < n/2, Sigma is implementable from
// scratch (no failure detector at all).
#include "core/sigma_from_majority.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "fd/history.hpp"
#include "fd/scripted.hpp"

namespace nucon {
namespace {

struct MajorityOutcome {
  RecordedHistory emulated;
  std::vector<int> rounds;
};

MajorityOutcome run_majority_sigma(const FailurePattern& fp, Pid t,
                                   std::uint64_t seed, std::int64_t steps) {
  ScriptedOracle no_fd([](Pid, Time) { return FdValue{}; });

  MajorityOutcome outcome;
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  opts = with_emulation_recording(std::move(opts), outcome.emulated);

  const SimResult sim =
      simulate(fp, no_fd, make_sigma_from_majority(fp.n(), t), opts);
  for (Pid p = 0; p < fp.n(); ++p) {
    outcome.rounds.push_back(static_cast<const SigmaFromMajority*>(
                                 sim.automata[static_cast<std::size_t>(p)].get())
                                 ->round());
  }
  return outcome;
}

// ctest names each test after gtest's print of its parameter, which for a
// struct is every byte, padding included. `faults` is 8 bytes wide so the
// struct has no padding and the name holds no uninitialized bytes.
struct MajorityParam {
  Pid n;
  Pid t;
  std::int64_t faults;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<MajorityParam>);

class MajoritySweep : public testing::TestWithParam<MajorityParam> {};

TEST_P(MajoritySweep, EmulatedHistoryIsInSigma) {
  const auto [n, t, faults, seed] = GetParam();
  ASSERT_LT(2 * t, n);  // the theorem's precondition
  Rng rng(seed * 31 + 7);
  FailurePattern fp =
      Environment{n, t}.sample(rng, static_cast<Pid>(faults), 30);

  const MajorityOutcome outcome = run_majority_sigma(fp, t, seed, 4000);
  ASSERT_FALSE(outcome.emulated.empty());
  const auto result = check_sigma(outcome.emulated, fp);
  EXPECT_TRUE(result.ok) << result.detail << " under " << fp.to_string();
  // And a fortiori Sigma^nu.
  EXPECT_TRUE(check_sigma_nu(outcome.emulated, fp).ok);
}

TEST_P(MajoritySweep, AllQuorumsAreMajorities) {
  const auto [n, t, faults, seed] = GetParam();
  Rng rng(seed * 131 + 3);
  FailurePattern fp =
      Environment{n, t}.sample(rng, static_cast<Pid>(faults), 30);

  const MajorityOutcome outcome = run_majority_sigma(fp, t, seed, 3000);
  for (const Sample& s : outcome.emulated.samples()) {
    // Initial Pi or an (n - t)-sized set; both are majorities when t < n/2.
    EXPECT_TRUE(is_majority(s.value.quorum(), n))
        << s.value.quorum().to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MajoritySweep,
    testing::Values(MajorityParam{3, 1, 0, 1}, MajorityParam{3, 1, 1, 1},
                    MajorityParam{5, 2, 0, 1}, MajorityParam{5, 2, 1, 2},
                    MajorityParam{5, 2, 2, 3}, MajorityParam{7, 3, 3, 1},
                    MajorityParam{7, 2, 2, 2}, MajorityParam{4, 1, 1, 4}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_t" +
             std::to_string(info.param.t) + "_f" +
             std::to_string(info.param.faults) + "_s" +
             std::to_string(info.param.seed);
    });

constexpr std::uint64_t kPastInt = (std::uint64_t{1} << 32) + 1;

TEST(SigmaFromMajority, TagsForARoundPastIntAreDropped) {
  // Cut to int, two round-(2^32 + 1) tags would complete round 1 and emit
  // the quorum {1, 2}.
  SigmaFromMajority a(0, 3, 1);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);  // round 1
  const auto before = a.snapshot();
  ByteWriter w;
  w.uvarint(kPastInt);
  const Bytes tag = w.take();
  for (const Pid from : {1, 2}) {
    const Incoming in{from, tag};
    out.clear();
    a.step(&in, FdValue{}, out);
    EXPECT_TRUE(out.empty()) << from;
  }
  EXPECT_EQ(a.snapshot(), before);
  EXPECT_EQ(a.emulated_output(), FdValue::of_quorum(ProcessSet::full(3)));
}

TEST(SigmaFromMajority, RestoreRefusesRoundsPastIntAndDeadRounds) {
  SigmaFromMajority a(0, 3, 1);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  ByteWriter w;
  w.uvarint(2);
  const Bytes early = w.take();
  const Incoming in{1, early};  // p1 is already in round 2
  a.step(&in, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  // Round 1, one buffered round, round 2, then its senders.
  ASSERT_EQ(saved.at(0), 0x01);
  ASSERT_EQ(saved.at(1), 0x01);
  ASSERT_EQ(saved.at(2), 0x02);
  const auto with_byte = [&saved](std::size_t at, std::uint64_t v) {
    ByteWriter b;
    b.raw(ByteView(saved).first(at));
    b.uvarint(v);
    b.raw(ByteView(saved).subspan(at + 1));
    return b.take();
  };

  SigmaFromMajority b(0, 3, 1);
  EXPECT_FALSE(b.restore(with_byte(0, kPastInt)));
  EXPECT_FALSE(b.restore(with_byte(2, kPastInt)));
  EXPECT_FALSE(b.restore(with_byte(2, 0)));  // a round already over
  ASSERT_TRUE(b.restore(saved));
  EXPECT_EQ(b.round(), 1);
  EXPECT_EQ(b.snapshot(), saved);
}

TEST(SigmaFromMajority, SavedStateHoldsOnlyLiveRounds) {
  // Tags that arrive after their round ended are dropped, so the saved
  // state stays a few live rounds however many rounds have passed.
  const FailurePattern fp(3);
  ScriptedOracle no_fd([](Pid, Time) { return FdValue{}; });
  SchedulerOptions opts;
  opts.seed = 1;
  opts.max_steps = 6000;
  const SimResult sim =
      simulate(fp, no_fd, make_sigma_from_majority(3, 1), opts);
  for (Pid p = 0; p < 3; ++p) {
    const Automaton& a = *sim.automata[static_cast<std::size_t>(p)];
    EXPECT_GT(static_cast<const SigmaFromMajority&>(a).round(), 100) << p;
    EXPECT_LT(a.snapshot()->size(), 64u) << p;
  }
}

TEST(SigmaFromMajority, RoundsKeepAdvancing) {
  FailurePattern fp(5);
  fp.set_crash(4, 20);
  const MajorityOutcome outcome = run_majority_sigma(fp, 2, 9, 4000);
  for (Pid p : fp.correct()) {
    EXPECT_GT(outcome.rounds[static_cast<std::size_t>(p)], 20) << p;
  }
}

TEST(SigmaFromMajority, BlocksWhenMajorityCrashes) {
  // Outside the precondition (here 3 of 5 crash with t = 2 — i.e. the
  // environment lied), rounds stall once fewer than n - t processes are
  // alive: the from-scratch implementation cannot make progress, which is
  // the liveness shadow of Theorem 7.1's ONLY-IF direction.
  FailurePattern fp(5);
  fp.set_crash(2, 40);
  fp.set_crash(3, 40);
  fp.set_crash(4, 40);
  const MajorityOutcome outcome = run_majority_sigma(fp, 2, 10, 4000);

  // Rounds reached are bounded by what completed before the crashes.
  for (Pid p : fp.correct()) {
    EXPECT_LT(outcome.rounds[static_cast<std::size_t>(p)], 60) << p;
  }
  // Consequently completeness fails: late quorums still contain crashed
  // processes.
  EXPECT_FALSE(check_sigma(outcome.emulated, fp).ok);
}

TEST(SigmaFromMajority, IgnoresFailureDetectorInput) {
  // "From scratch" means the FD value is never consulted: two runs with
  // wildly different oracles but the same seed emit identical histories.
  const FailurePattern fp(3);
  ScriptedOracle weird([](Pid p, Time t) {
    return FdValue::of_quorum(ProcessSet::single(static_cast<Pid>((p + t) % 3)));
  });
  RecordedHistory h1;
  SchedulerOptions opts;
  opts.seed = 77;
  opts.max_steps = 500;
  opts = with_emulation_recording(std::move(opts), h1);
  (void)simulate(fp, weird, make_sigma_from_majority(3, 1), opts);

  const MajorityOutcome plain = run_majority_sigma(fp, 1, 77, 500);
  ASSERT_EQ(h1.samples().size(), plain.emulated.samples().size());
  for (std::size_t i = 0; i < h1.samples().size(); ++i) {
    EXPECT_EQ(h1.samples()[i].value, plain.emulated.samples()[i].value);
  }
}

}  // namespace
}  // namespace nucon
