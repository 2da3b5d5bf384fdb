// Ben-Or randomized binary consensus: the oracle-free baseline.
#include "algo/ben_or.hpp"

#include <gtest/gtest.h>

#include "consensus_test_util.hpp"
#include "fd/scripted.hpp"

namespace nucon {
namespace {

ScriptedOracle no_fd() {
  return ScriptedOracle([](Pid, Time) { return FdValue{}; });
}

using testutil::SweepParam;

class BenOrSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(BenOrSweep, SolvesUniformBinaryConsensusWithMajority) {
  const auto [n, faults, seed] = GetParam();
  const Pid t = static_cast<Pid>((n - 1) / 2);
  ASSERT_LE(faults, t);
  const FailurePattern fp = testutil::sweep_pattern({n, faults, seed}, 120);

  auto oracle = no_fd();
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 300'000;
  const auto stats = run_consensus(fp, oracle, make_ben_or(n, t, seed),
                                   mixed_proposals(n), opts);

  EXPECT_TRUE(stats.all_correct_decided) << fp.to_string();
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

std::vector<SweepParam> ben_or_params() {
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

INSTANTIATE_TEST_SUITE_P(Sweep, BenOrSweep, testing::ValuesIn(ben_or_params()),
                         testutil::sweep_name);

TEST(BenOr, UnanimousInputsDecideWithoutCoins) {
  // With unanimous proposals, round 1 already has a majority value: no
  // coin is ever flipped and everyone decides that value.
  const FailurePattern fp(5);
  auto oracle = no_fd();
  SchedulerOptions opts;
  opts.seed = 4;
  opts.max_steps = 60'000;
  SimResult sim = simulate_consensus(fp, oracle, make_ben_or(5, 2, 4),
                                     {1, 1, 1, 1, 1}, opts);
  for (Pid p = 0; p < 5; ++p) {
    const auto* b = static_cast<const BenOr*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    EXPECT_EQ(b->decision(), 1) << p;
    EXPECT_EQ(b->coin_flips(), 0) << p;
  }
}

TEST(BenOr, MixedInputsUseCoinsButStillAgree) {
  int total_decided = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const FailurePattern fp(4);
    auto oracle = no_fd();
    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = 300'000;
    const auto stats = run_consensus(fp, oracle, make_ben_or(4, 1, seed),
                                     {0, 1, 0, 1}, opts);
    EXPECT_TRUE(stats.verdict.uniform_agreement) << stats.verdict.detail;
    EXPECT_TRUE(stats.verdict.validity) << stats.verdict.detail;
    total_decided += stats.all_correct_decided;
  }
  // Termination is probability-1, not certain; with a 300k-step budget it
  // should essentially always land.
  EXPECT_GE(total_decided, 9);
}

TEST(BenOr, SafetyWhileBlockedWithoutMajority) {
  FailurePattern fp(5);
  fp.set_crash(2, 10);
  fp.set_crash(3, 10);
  fp.set_crash(4, 10);
  auto oracle = no_fd();
  SchedulerOptions opts;
  opts.seed = 6;
  opts.max_steps = 40'000;
  const auto stats = run_consensus(fp, oracle, make_ben_or(5, 2, 6),
                                   mixed_proposals(5), opts);
  EXPECT_FALSE(stats.all_correct_decided);  // stalls: < n-t alive
  EXPECT_TRUE(stats.verdict.uniform_agreement);
}

constexpr std::uint64_t kPastInt = (std::uint64_t{1} << 32) + 1;

TEST(BenOr, MessagesForARoundPastIntAreDropped) {
  // Cut to int, round 2^32 + 1 would be filed under round 1, and the two
  // reports would complete its n - t = 2.
  BenOr a(0, 1, 3, 1, 9);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);  // round 1, waiting for reports
  const auto before = a.snapshot();
  for (const std::uint8_t tag : {1, 2}) {  // REPORT, PROPOSAL
    ByteWriter w;
    w.u8(tag);
    w.uvarint(kPastInt);
    w.svarint(1);
    const Bytes msg = w.take();
    for (const Pid from : {1, 2}) {
      const Incoming in{from, msg};
      out.clear();
      a.step(&in, FdValue{}, out);
      EXPECT_TRUE(out.empty());
      EXPECT_EQ(a.snapshot(), before) << "tag " << int{tag};
    }
  }
}

TEST(BenOr, RestoreRefusesARoundPastInt) {
  BenOr a(0, 1, 3, 1, 9);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  ASSERT_EQ(saved.at(1), 0x01);  // x = 1 is one varint byte, then round 1
  ByteWriter w;
  w.raw(ByteView(saved).first(1));
  w.uvarint(kPastInt);
  w.raw(ByteView(saved).subspan(2));

  BenOr b(0, 1, 3, 1, 9);
  EXPECT_FALSE(b.restore(w.take()));
  ASSERT_TRUE(b.restore(saved));
  EXPECT_EQ(b.round(), 1);
}

TEST(BenOr, RestoreRefusesAFlagAboveOne) {
  BenOr a(0, 1, 3, 1, 9);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  // x = 1, round 1 and decided round 0 are one varint byte each, then the
  // phase and has_decided.
  const Bytes decided = testutil::with_decision(saved, 4, 1, 1);
  BenOr b(0, 1, 3, 1, 9);
  ASSERT_TRUE(b.restore(decided));
  ASSERT_EQ(b.snapshot(), decided);

  // A has_decided of 2 would read as "decided" and re-save as 1.
  EXPECT_FALSE(b.restore(testutil::with_decision(saved, 4, 2, 1)));
}

TEST(BenOr, RestoreRefusesAReportOutsideBinary) {
  // advance() counts reports by value; a restored report of 5 indexed
  // past its two counters.
  BenOr a(0, 1, 3, 1, 9);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  ByteWriter w;
  w.u8(1);  // REPORT, round 1, value 1
  w.uvarint(1);
  w.svarint(1);
  const Bytes report = w.take();
  const Incoming in{1, report};
  a.step(&in, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  // The inbox ends with round 1's slots: reports {-, 1, -}, then three
  // empty proposal slots.
  ASSERT_GE(saved.size(), 7u);
  const std::size_t at = saved.size() - 5;
  ASSERT_EQ(saved[at - 1], 0x01);
  ASSERT_EQ(saved[at], 0x02);  // svarint(1)
  Bytes forged = saved;
  forged[at] = 0x0a;  // svarint(5)

  BenOr b(0, 1, 3, 1, 9);
  EXPECT_FALSE(b.restore(forged));
  EXPECT_TRUE(b.restore(saved));
}

}  // namespace
}  // namespace nucon
