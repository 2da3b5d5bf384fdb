// Chandra-Toueg rotating-coordinator consensus with <>S: uniform
// consensus whenever a majority of processes is correct.
#include "algo/ct_consensus.hpp"

#include <gtest/gtest.h>

#include "consensus_test_util.hpp"
#include "fd/classic.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;
using testutil::SweepParam;

constexpr Time kStabilize = 120;
constexpr std::int64_t kMaxSteps = 150'000;

class CtSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(CtSweep, SolvesUniformConsensusWithMajority) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  ASSERT_TRUE(is_majority(fp.correct(), fp.n()));
  exp::AlgoOracles oracle(exp::Algo::kCt, fp, kStabilize, kAdversarial,
                          GetParam().seed);

  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = kMaxSteps;
  const auto stats =
      run_consensus(fp, oracle.top(), make_ct(GetParam().n),
                    mixed_proposals(GetParam().n), opts);

  EXPECT_TRUE(stats.all_correct_decided) << fp.to_string();
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

std::vector<SweepParam> ct_params() {
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

INSTANTIATE_TEST_SUITE_P(Sweep, CtSweep, testing::ValuesIn(ct_params()),
                         testutil::sweep_name);

TEST(CtConsensus, DecidesUnanimousValue) {
  const FailurePattern fp(3);
  exp::AlgoOracles oracle(exp::Algo::kCt, fp, 0, kAdversarial, 4);
  SchedulerOptions opts;
  opts.seed = 4;
  opts.max_steps = 60'000;
  const auto stats = run_consensus(fp, oracle.top(), make_ct(3), {8, 8, 8}, opts);
  ASSERT_TRUE(stats.all_correct_decided);
  for (Pid p = 0; p < 3; ++p) {
    EXPECT_EQ(stats.decisions[static_cast<std::size_t>(p)], 8);
  }
}

TEST(CtConsensus, ToleratesCrashedFirstCoordinator) {
  FailurePattern fp(5);
  fp.set_crash(0, 5);  // round-1 coordinator dies immediately
  exp::AlgoOracles oracle(exp::Algo::kCt, fp, 80, kAdversarial, 8);
  SchedulerOptions opts;
  opts.seed = 8;
  opts.max_steps = 150'000;
  const auto stats = run_consensus(fp, oracle.top(), make_ct(5),
                                   mixed_proposals(5), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

TEST(CtConsensus, WithPerfectDetectorDecidesQuickly) {
  FailurePattern fp(4);
  fp.set_crash(3, 15);
  PerfectOracle oracle(fp);
  SchedulerOptions opts;
  opts.seed = 12;
  opts.max_steps = 60'000;
  const auto stats = run_consensus(fp, oracle, make_ct(4),
                                   mixed_proposals(4), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_uniform()) << stats.verdict.detail;
}

TEST(CtConsensus, SafetyHoldsEvenWhileBlockedWithoutMajority) {
  FailurePattern fp(4);
  fp.set_crash(1, 10);
  fp.set_crash(2, 10);
  exp::AlgoOracles oracle(exp::Algo::kCt, fp, 60, kAdversarial, 14);
  SchedulerOptions opts;
  opts.seed = 14;
  opts.max_steps = 40'000;
  const auto stats = run_consensus(fp, oracle.top(), make_ct(4),
                                   mixed_proposals(4), opts);
  EXPECT_TRUE(stats.verdict.uniform_agreement);
  EXPECT_TRUE(stats.verdict.validity);
}

constexpr std::uint64_t kPastInt = (std::uint64_t{1} << 32) + 1;

/// `encoded` with its one-byte varint at `at` replaced by `v`.
Bytes with_varint(const Bytes& encoded, std::size_t at, std::uint64_t v) {
  ByteWriter w;
  w.raw(ByteView(encoded).first(at));
  w.uvarint(v);
  w.raw(ByteView(encoded).subspan(at + 1));
  return w.take();
}

TEST(CtConsensus, RoundsAndTimestampsPastIntAreDropped) {
  // p1 is in round 1 (coordinator p0), waiting for the selection. Cut to
  // int, each message below would land in round 1.
  CtConsensus a(1, 5, 3);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  const auto before = a.snapshot();
  const auto message = [](std::uint8_t tag, std::uint64_t round) {
    ByteWriter w;
    w.u8(tag);
    w.uvarint(round);
    return w;
  };
  ByteWriter select = message(2, kPastInt);  // SELECT 9
  select.svarint(9);
  ByteWriter estimate = message(1, 1);  // ESTIMATE 7, timestamp past int
  estimate.svarint(7);
  estimate.uvarint(kPastInt);
  ByteWriter ack = message(3, kPastInt);
  for (ByteWriter* w : {&select, &estimate, &ack}) {
    const Bytes msg = w->take();
    const Incoming in{0, msg};
    out.clear();
    a.step(&in, FdValue{}, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(a.snapshot(), before) << "tag " << int{msg[0]};
  }
}

TEST(CtConsensus, RestoreRefusesRoundsAndTimestampsPastInt) {
  CtConsensus a(1, 5, 3);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  // x = 5 is one varint byte, then timestamp 0 and round 1.
  ASSERT_EQ(saved.at(1), 0x00);
  ASSERT_EQ(saved.at(2), 0x01);

  CtConsensus b(1, 5, 3);
  EXPECT_FALSE(b.restore(with_varint(saved, 1, kPastInt)));
  // Cut to int, 2^32 - 1 was round -1, saved back as 2^64 - 1.
  EXPECT_FALSE(b.restore(with_varint(saved, 2, (std::uint64_t{1} << 32) - 1)));
  ASSERT_TRUE(b.restore(saved));
  EXPECT_EQ(b.round(), 1);
}

TEST(CtConsensus, RestoreRefusesAFlagAboveOne) {
  CtConsensus a(1, 5, 3);
  std::vector<Outgoing> out;
  a.step(nullptr, FdValue{}, out);
  const Bytes saved = *a.snapshot();
  // x = 5, timestamp 0, round 1, the phase and the selection are one byte
  // each, then has_decided.
  const Bytes decided = testutil::with_decision(saved, 5, 1, 5);
  CtConsensus b(1, 5, 3);
  ASSERT_TRUE(b.restore(decided));
  ASSERT_EQ(b.snapshot(), decided);

  // A has_decided of 2 would read as "decided" and re-save as 1.
  EXPECT_FALSE(b.restore(testutil::with_decision(saved, 5, 2, 5)));
}

TEST(CtConsensus, RestoreRefusesAnEstimateFromOutsideTheSystem) {
  // Coordinator p0 of round 1 at n=3; two estimates from p7 and p8 would
  // make a majority and select 9, a value nobody proposed.
  const auto state = [](Pid from) {
    ByteWriter w;
    w.svarint(5);  // x
    w.uvarint(0);  // timestamp
    w.uvarint(1);  // round
    w.u8(0);       // awaiting estimates
    w.svarint(0);  // selection
    w.u8(0);       // undecided
    w.uvarint(0);  // decided round
    w.u8(0);       // not flooded
    w.uvarint(1);  // one buffered round: round 1, two estimates
    w.uvarint(1);
    w.uvarint(2);
    for (const Pid p : {Pid{1}, from}) {
      w.pid(p);
      w.svarint(9);
      w.uvarint(0);
    }
    w.u8(0);  // no selection, no acks, no replies
    w.uvarint(0);
    w.uvarint(0);
    return w.take();
  };
  CtConsensus a(0, 5, 3);
  EXPECT_TRUE(a.restore(state(2)));
  EXPECT_FALSE(a.restore(state(7)));
}

}  // namespace
}  // namespace nucon
