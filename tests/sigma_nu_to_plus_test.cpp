// T_{Sigma^nu -> Sigma^nu+} (paper Fig. 3, Theorem 6.7): the emulated
// output history must satisfy all four Sigma^nu+ properties whenever the
// input samples come from a legal Sigma^nu oracle — including fully
// adversarial faulty behavior.
#include "core/sigma_nu_to_plus.hpp"

#include <gtest/gtest.h>

#include "consensus_test_util.hpp"
#include "fd/history.hpp"
#include "util/bytes.hpp"

namespace nucon {
namespace {

using testutil::SweepParam;

constexpr Time kStabilize = 60;

struct BoostOutcome {
  RecordedHistory emulated;
  std::vector<std::int64_t> outputs_per_process;
};

BoostOutcome run_boost(const FailurePattern& fp, std::uint64_t seed,
                       FaultyQuorumBehavior behavior, std::int64_t steps) {
  SigmaNuOptions so;
  so.stabilize_at = kStabilize;
  so.seed = seed;
  so.faulty = behavior;
  SigmaNuOracle oracle(fp, so);

  BoostOutcome outcome;
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  opts = with_emulation_recording(std::move(opts), outcome.emulated);

  const SimResult sim =
      simulate(fp, oracle, make_sigma_nu_to_plus(fp.n()), opts);
  for (Pid p = 0; p < fp.n(); ++p) {
    outcome.outputs_per_process.push_back(
        static_cast<const SigmaNuToPlus*>(
            sim.automata[static_cast<std::size_t>(p)].get())
            ->outputs_produced());
  }
  return outcome;
}

class BoostSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(BoostSweep, EmulatedHistoryIsInSigmaNuPlus) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 15);
  const BoostOutcome outcome = run_boost(
      fp, GetParam().seed, FaultyQuorumBehavior::kAdversarialDisjoint, 2500);

  ASSERT_FALSE(outcome.emulated.empty());
  const auto result = check_sigma_nu_plus(outcome.emulated, fp);
  EXPECT_TRUE(result.ok) << result.detail << " under " << fp.to_string();
}

TEST_P(BoostSweep, CorrectProcessesKeepProducingQuorums) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 15);
  const BoostOutcome outcome =
      run_boost(fp, GetParam().seed + 77, FaultyQuorumBehavior::kBenign, 2500);
  for (Pid p : fp.correct()) {
    EXPECT_GT(outcome.outputs_per_process[static_cast<std::size_t>(p)], 3)
        << "process " << p << " under " << fp.to_string();
  }
}

std::vector<SweepParam> boost_params() {
  std::vector<SweepParam> out;
  for (Pid n : {2, 3, 4, 5}) {
    for (Pid faults = 0; faults < n; ++faults) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoostSweep, testing::ValuesIn(boost_params()),
                         testutil::sweep_name);

TEST(Boost, OutputsAreSelfInclusiveFromTheStart) {
  // Self-inclusion must hold for EVERY emitted value including the initial
  // Pi, at every process, at every time — check the raw record.
  const FailurePattern fp(4);
  const BoostOutcome outcome =
      run_boost(fp, 5, FaultyQuorumBehavior::kAdversarialDisjoint, 1500);
  for (const Sample& s : outcome.emulated.samples()) {
    EXPECT_TRUE(s.value.quorum().contains(s.p));
  }
}

TEST(Boost, EventualOutputsShrinkToCorrect) {
  FailurePattern fp(4);
  fp.set_crash(3, 30);
  const BoostOutcome outcome =
      run_boost(fp, 6, FaultyQuorumBehavior::kAdversarialDisjoint, 3000);
  // The LAST emitted quorum of each correct process contains only correct
  // processes (completeness, witnessed concretely).
  for (Pid p : fp.correct()) {
    const auto samples = outcome.emulated.of(p);
    ASSERT_FALSE(samples.empty());
    EXPECT_TRUE(samples.back().value.quorum().is_subset_of(fp.correct()))
        << samples.back().value.quorum().to_string();
  }
}

TEST(Boost, InitialOutputIsPi) {
  SigmaNuToPlus a(2, 5);
  EXPECT_EQ(a.emulated_output().quorum(), ProcessSet::full(5));
}

/// A saved state's last fields: the anchor u_p, then the output count.
Bytes anchor_tail(std::int64_t q, std::uint64_t k, std::int64_t outputs) {
  ByteWriter w;
  w.svarint(q);
  w.uvarint(k);
  w.svarint(outputs);
  return w.take();
}

/// `saved` with its trailing `old_tail` replaced by `new_tail`.
Bytes with_tail(const Bytes& saved, const Bytes& old_tail,
                const Bytes& new_tail) {
  ByteWriter w;
  w.raw(ByteView(saved).first(saved.size() - old_tail.size()));
  w.raw(new_tail);
  return w.take();
}

TEST(Boost, RestoreRefusesAnAnchorOutsideItsOwnSamples) {
  // Alone behind quorum {0}, p0 emits at every step, so after three steps
  // its anchor is its own third sample and it has emitted three times.
  SigmaNuToPlus a(0, 3);
  std::vector<Outgoing> out;
  for (int i = 0; i < 3; ++i) {
    a.step(nullptr, FdValue::of_quorum(ProcessSet{0}), out);
  }
  ASSERT_EQ(a.outputs_produced(), 3);
  const Bytes saved = *a.snapshot();
  const Bytes tail = anchor_tail(0, 3, 3);
  ASSERT_GE(saved.size(), tail.size());
  ASSERT_EQ(Bytes(saved.end() - tail.size(), saved.end()), tail);

  const auto anchored = [&](std::int64_t q, std::uint64_t k,
                            std::int64_t outputs) {
    return with_tail(saved, tail, anchor_tail(q, k, outputs));
  };

  SigmaNuToPlus b(0, 3);
  EXPECT_FALSE(b.restore(anchored(0, 100000, 3)));
  EXPECT_FALSE(b.restore(anchored(0, (1ULL << 32) + 3, 3)));  // 3 mod 2^32
  EXPECT_FALSE(b.restore(anchored(0, 0, 3)));
  EXPECT_FALSE(b.restore(anchored(1, 1, 3)));  // p1 has no sample here
  EXPECT_FALSE(b.restore(anchored(-1, 0, 3)));
  EXPECT_FALSE(b.restore(anchored(0, 3, -1)));
  EXPECT_TRUE(b.restore(anchored(0, 2, 3)));  // an earlier own sample
  ASSERT_TRUE(b.restore(saved));
  EXPECT_EQ(b.snapshot(), saved);

  // Before its first step a process has no sample to anchor on.
  const Bytes unstepped = *SigmaNuToPlus(0, 3).snapshot();
  const Bytes none = anchor_tail(-1, 0, 0);
  EXPECT_FALSE(b.restore(with_tail(unstepped, none, anchor_tail(0, 1, 0))));
  ASSERT_TRUE(b.restore(unstepped));
  EXPECT_EQ(b.snapshot(), unstepped);
}

}  // namespace
}  // namespace nucon
