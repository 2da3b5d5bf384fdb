// The Theorem 6.28 construction: nonuniform consensus from raw
// (Omega, Sigma^nu) — the transformation and A_nuc stacked in one
// automaton — must solve nonuniform consensus in any environment, even
// with fully adversarial faulty Sigma^nu modules.
#include "core/stacked_nuc.hpp"

#include <gtest/gtest.h>

#include "consensus_test_util.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;
using testutil::SweepParam;

constexpr Time kStabilize = 80;

class StackedSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(StackedSweep, SolvesNonuniformConsensusFromRawSigmaNu) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  exp::AlgoOracles oracle(exp::Algo::kStacked, fp, kStabilize, kAdversarial,
                          GetParam().seed);

  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = 250'000;
  const auto stats =
      run_consensus(fp, oracle.top(), make_stacked_nuc(GetParam().n),
                    mixed_proposals(GetParam().n), opts);

  EXPECT_TRUE(stats.all_correct_decided) << fp.to_string();
  EXPECT_TRUE(stats.verdict.termination) << stats.verdict.detail;
  EXPECT_TRUE(stats.verdict.validity) << stats.verdict.detail;
  EXPECT_TRUE(stats.verdict.nonuniform_agreement) << stats.verdict.detail;
  // Honest senders re-send held nodes as the receiver's own bytes.
  EXPECT_EQ(stats.metrics.counter_value("dag.held_validated"), 0);
}

std::vector<SweepParam> stacked_params() {
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

INSTANTIATE_TEST_SUITE_P(Sweep, StackedSweep,
                         testing::ValuesIn(stacked_params()),
                         testutil::sweep_name);

TEST(StackedNuc, ToleratesCorrectMinority) {
  FailurePattern fp(4);
  fp.set_crash(1, 30);
  fp.set_crash(2, 45);
  fp.set_crash(3, 60);
  exp::AlgoOracles oracle(exp::Algo::kStacked, fp, kStabilize, kAdversarial, 7);
  SchedulerOptions opts;
  opts.seed = 7;
  opts.max_steps = 250'000;
  const auto stats = run_consensus(fp, oracle.top(), make_stacked_nuc(4),
                                   mixed_proposals(4), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

TEST(StackedNuc, TransformationOutputsShrinkFromPi) {
  const FailurePattern fp(3);
  exp::AlgoOracles oracle(exp::Algo::kStacked, fp, kStabilize, kAdversarial, 9);
  SchedulerOptions opts;
  opts.seed = 9;
  opts.max_steps = 250'000;
  SimResult sim = simulate_consensus(fp, oracle.top(), make_stacked_nuc(3),
                                     {0, 1, 0}, opts);
  for (Pid p = 0; p < 3; ++p) {
    const auto* a = static_cast<const StackedNuc*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    EXPECT_GT(a->transformation().outputs_produced(), 0) << p;
  }
}

TEST(StackedNuc, DagWorkCountersArePinned) {
  // The benchmark's stacked point (n=6, one fault) at one seed.
  exp::SweepPoint pt;
  pt.algo = exp::Algo::kStacked;
  pt.n = 6;
  pt.faults = 1;
  pt.seed = 20000;
  const ConsensusRunStats stats = exp::run_point(pt);
  const trace::MetricsRegistry& m = stats.metrics;
  EXPECT_EQ(stats.steps, 2409);
  EXPECT_EQ(m.counter_value("dag.nodes_decoded"), 9360);
  EXPECT_EQ(m.counter_value("dag.held_skipped"), 47700);
  EXPECT_EQ(m.counter_value("dag.held_validated"), 0);
  EXPECT_EQ(m.counter_value("dag.walk_searches"), 9313);
  // One walk per step: resumed unless the barrier moved.
  EXPECT_EQ(m.counter_value("dag.walks_resumed"), 2275);
  EXPECT_EQ(m.counter_value("dag.walks_restarted"), 134);
}

TEST(StackedNuc, GarbledChannelByteIsDropped) {
  StackedNuc a(0, 1, 3);
  std::vector<Outgoing> out;
  const Bytes junk = {0x7F, 1, 2, 3};  // unknown channel
  const Incoming in{1, junk};
  FdValue d = FdValue::of_leader(0);
  d.set_quorum(ProcessSet{0, 1, 2});
  a.step(&in, d, out);  // must not crash; both components saw lambda
  EXPECT_FALSE(a.decision());
}

}  // namespace
}  // namespace nucon
