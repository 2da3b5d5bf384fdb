// Tests of schedule simulation from DAG paths (paper §4.2, Lemma 4.10):
// replaying a consensus algorithm along a chain of samples with
// oldest-first delivery reaches decisions, deterministically.
#include "dag/schedule_sim.hpp"

#include <gtest/gtest.h>

#include "algo/mr_consensus.hpp"
#include "core/anuc.hpp"
#include "dag/dag_builder.hpp"
#include "fd/composed.hpp"
#include "fd/omega.hpp"
#include "fd/sigma_nu.hpp"
#include "sim/scheduler.hpp"

namespace nucon {
namespace {

/// Builds a realistic DAG by running A_DAG under a composed
/// (Omega, Sigma^nu+) oracle — the detector A_nuc consumes.
SampleDag build_dag(const FailurePattern& fp, std::uint64_t seed,
                    std::int64_t steps, Pid owner) {
  OmegaOptions oo;
  oo.stabilize_at = 0;
  oo.seed = seed;
  OmegaOracle omega(fp, oo);
  SigmaNuPlusOptions so;
  so.stabilize_at = 0;
  so.seed = seed + 1;
  SigmaNuPlusOracle sigma(fp, so);
  ComposedOracle oracle(omega, sigma);

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  const SimResult sim = simulate(fp, oracle, make_adag(fp.n()), opts);
  return static_cast<const AdagAutomaton*>(
             sim.automata[static_cast<std::size_t>(owner)].get())
      ->core()
      .dag();
}

TEST(ScheduleSim, AnucDecidesAlongAChain) {
  const FailurePattern fp(3);
  const SampleDag dag = build_dag(fp, 1, 900, 0);
  const auto chain = dag.greedy_chain(NodeRef{0, 1});
  ASSERT_GT(chain.size(), 50u);

  const std::vector<Value> zeros(3, 0);
  const ChainSimOutcome outcome =
      simulate_chain(dag, chain, make_anuc(3), zeros, 0);
  EXPECT_TRUE(outcome.observer_decided);
  EXPECT_EQ(outcome.decision, 0);
  EXPECT_GT(outcome.steps_to_decision, 0u);
  EXPECT_LE(outcome.steps_to_decision, chain.size());
  EXPECT_TRUE(outcome.prefix_participants.is_subset_of(outcome.participants));
}

TEST(ScheduleSim, ValidityHoldsInSimulatedSchedules) {
  const FailurePattern fp(3);
  const SampleDag dag = build_dag(fp, 2, 2400, 1);
  const auto chain = dag.greedy_chain(NodeRef{1, 1});

  const ChainSimOutcome zeros =
      simulate_chain(dag, chain, make_anuc(3), {0, 0, 0}, 1);
  const ChainSimOutcome ones =
      simulate_chain(dag, chain, make_anuc(3), {1, 1, 1}, 1);
  if (zeros.observer_decided) {
    EXPECT_EQ(zeros.decision, 0);
  }
  if (ones.observer_decided) {
    EXPECT_EQ(ones.decision, 1);
  }
  EXPECT_TRUE(zeros.observer_decided);
  EXPECT_TRUE(ones.observer_decided);
}

TEST(ScheduleSim, DeterministicReplay) {
  const FailurePattern fp(3);
  const SampleDag dag = build_dag(fp, 3, 700, 0);
  const auto chain = dag.greedy_chain(NodeRef{0, 1});
  const std::vector<Value> proposals = {0, 1, 0};

  const ChainSimOutcome a = simulate_chain(dag, chain, make_anuc(3), proposals, 0);
  const ChainSimOutcome b = simulate_chain(dag, chain, make_anuc(3), proposals, 0);
  EXPECT_EQ(a.observer_decided, b.observer_decided);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.steps_to_decision, b.steps_to_decision);
  EXPECT_EQ(a.participants, b.participants);
}

TEST(ScheduleSim, EmptyChainDecidesNothing) {
  const SampleDag dag(3);
  const std::vector<NodeRef> chain;
  const ChainSimOutcome outcome =
      simulate_chain(dag, chain, make_anuc(3), {0, 0, 0}, 0);
  EXPECT_FALSE(outcome.observer_decided);
  EXPECT_TRUE(outcome.participants.empty());
}

TEST(ScheduleSim, ObserverAbsentFromChainDoesNotDecide) {
  // A chain with no steps of the observer cannot decide at the observer.
  SampleDag dag(3);
  std::vector<NodeRef> chain;
  FdValue v = FdValue::of_leader(1);
  v.set_quorum(ProcessSet{1, 2});
  for (int i = 0; i < 30; ++i) {
    chain.push_back(dag.take_sample(static_cast<Pid>(1 + i % 2), v));
  }
  const ChainSimOutcome outcome =
      simulate_chain(dag, chain, make_anuc(3), {0, 0, 0}, 0);
  EXPECT_FALSE(outcome.observer_decided);
  EXPECT_FALSE(outcome.participants.contains(0));
}

TEST(ScheduleSim, MrAlsoDecidesAlongChains) {
  // The simulator is algorithm-generic: the MR quorum algorithm works too.
  const FailurePattern fp(3);
  const SampleDag dag = build_dag(fp, 5, 900, 2);
  const auto chain = dag.greedy_chain(NodeRef{2, 1});
  const ChainSimOutcome outcome =
      simulate_chain(dag, chain, make_mr_fd_quorum(3), {1, 1, 1}, 2);
  EXPECT_TRUE(outcome.observer_decided);
  EXPECT_EQ(outcome.decision, 1);
}

TEST(ScheduleSim, PrefixParticipantsAreMinimal) {
  // participants(S_0) of the deciding prefix never exceeds the full
  // chain's participants, and the deciding prefix is genuinely shorter
  // when decision happens early.
  const FailurePattern fp(4);
  const SampleDag dag = build_dag(fp, 7, 1600, 0);
  const auto chain = dag.greedy_chain(NodeRef{0, 1});
  const ChainSimOutcome outcome =
      simulate_chain(dag, chain, make_anuc(4), {0, 0, 0, 0}, 0);
  ASSERT_TRUE(outcome.observer_decided);
  EXPECT_LT(outcome.steps_to_decision, chain.size());
}

}  // namespace
}  // namespace nucon
