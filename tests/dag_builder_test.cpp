// Integration tests of A_DAG (paper Fig. 1) under the scheduler: the
// finite analogues of Lemmas 4.6-4.8.
#include "dag/dag_builder.hpp"

#include <gtest/gtest.h>

#include "fd/composed.hpp"
#include "fd/omega.hpp"
#include "fd/sigma_nu.hpp"
#include "sim/scheduler.hpp"

namespace nucon {
namespace {

struct AdagRun {
  explicit AdagRun(FailurePattern fp) : sim(std::move(fp)) {}
  SimResult sim;

  const AdagAutomaton& automaton(Pid p) const {
    return *static_cast<const AdagAutomaton*>(
        sim.automata[static_cast<std::size_t>(p)].get());
  }
};

AdagRun run_adag(const FailurePattern& fp, std::uint64_t seed,
                 std::int64_t steps) {
  SigmaNuOptions so;
  so.stabilize_at = 60;
  so.seed = seed;
  SigmaNuOracle oracle(fp, so);

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  AdagRun result(fp);
  result.sim = simulate(fp, oracle, make_adag(fp.n()), opts);
  return result;
}

TEST(DagBuilder, EveryCorrectProcessAccumulatesEveryonesSamples) {
  FailurePattern fp(4);
  fp.set_crash(3, 40);
  const AdagRun r = run_adag(fp, 1, 1200);

  for (Pid p : fp.correct()) {
    const SampleDag& dag = r.automaton(p).core().dag();
    for (Pid q : fp.correct()) {
      EXPECT_GT(dag.count_of(q), 20u) << "process " << p << " misses " << q;
    }
  }
}

TEST(DagBuilder, FaultySamplesStopGrowing) {
  FailurePattern fp(3);
  fp.set_crash(2, 30);
  const AdagRun r = run_adag(fp, 2, 900);
  const SampleDag& dag = r.automaton(0).core().dag();
  // Process 2 crashed after at most 30 ticks => it took at most 30 samples.
  EXPECT_LE(dag.count_of(2), 30u);
  EXPECT_GT(dag.count_of(0), 100u);
}

TEST(DagBuilder, KCounterMatchesOwnChain) {
  const FailurePattern fp(3);
  const AdagRun r = run_adag(fp, 3, 300);
  for (Pid p = 0; p < 3; ++p) {
    const auto& core = r.automaton(p).core();
    EXPECT_EQ(core.k(), core.dag().count_of(p));
  }
}

TEST(DagBuilder, RestoreRefusesAStepCountOtherThanTheOwnChainLength) {
  DagCore core(0, 3);
  for (int i = 0; i < 3; ++i) {
    (void)core.on_step(nullptr, FdValue::of_quorum(ProcessSet{0, 1, 2}));
  }
  ASSERT_EQ(core.dag().count_of(0), 3u);
  const auto state_with_k = [&](std::uint64_t k) {
    ByteWriter w;
    w.bytes(core.dag().serialize());
    w.uvarint(k);
    return w.take();
  };
  const auto restores = [](const Bytes& state) {
    DagCore twin(0, 3);
    ByteReader r(state);
    return twin.restore(r) && r.done();
  };

  ByteWriter saved;
  core.save(saved);
  EXPECT_EQ(saved.buffer(), state_with_k(3));
  EXPECT_TRUE(restores(state_with_k(3)));
  EXPECT_FALSE(restores(state_with_k(7)));
  EXPECT_FALSE(restores(state_with_k((std::uint64_t{1} << 32) + 3)));
  EXPECT_FALSE(restores(state_with_k(2)));
}

TEST(DagBuilder, FreshCoheGreedyChainCoversAllCorrect) {
  // Lemma 4.8's finite analogue: from an early own node, the greedy chain
  // through the cone contains samples of every correct process.
  FailurePattern fp(4);
  fp.set_crash(1, 25);
  const AdagRun r = run_adag(fp, 4, 1600);

  for (Pid p : fp.correct()) {
    const SampleDag& dag = r.automaton(p).core().dag();
    const auto chain = dag.fair_chain(NodeRef{p, 1});
    const ProcessSet participants =
        participants_of(std::span<const NodeRef>(chain));
    EXPECT_TRUE(fp.correct().is_subset_of(participants))
        << "chain of " << p << " covers " << participants.to_string();
  }
}

TEST(DagBuilder, LateConeContainsOnlyCorrectSamples) {
  // Lemma 4.6's finite analogue: a node taken after every faulty process
  // crashed has a cone of only-correct samples.
  FailurePattern fp(4);
  fp.set_crash(2, 20);
  const AdagRun r = run_adag(fp, 5, 1600);

  for (Pid p : fp.correct()) {
    const SampleDag& dag = r.automaton(p).core().dag();
    // A late own sample: three quarters into the run.
    const std::uint32_t k = dag.count_of(p) * 3 / 4 + 1;
    ASSERT_TRUE(dag.contains(NodeRef{p, k}));
    const auto cone = dag.cone_topo(NodeRef{p, k});
    const ProcessSet participants =
        participants_of(std::span<const NodeRef>(cone));
    EXPECT_TRUE(participants.is_subset_of(fp.correct()))
        << participants.to_string();
  }
}

TEST(DagBuilder, GossipCarriesWholeDag) {
  const FailurePattern fp(3);
  const AdagRun r = run_adag(fp, 6, 600);
  const auto& core = r.automaton(0).core();
  const auto decoded = SampleDag::deserialize(core.gossip());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->total_nodes(), core.dag().total_nodes());
  EXPECT_EQ(decoded->total_edges(), core.dag().total_edges());
}

TEST(DagBuilder, WholePayloadMergedIntoEmptyEqualsDeserialize) {
  FailurePattern fp(4);
  fp.set_crash(2, 50);
  const AdagRun r = run_adag(fp, 7, 900);
  const SampleDag& dag = r.automaton(1).core().dag();
  const Bytes whole = r.automaton(1).core().gossip();
  SampleDag merged(4);
  ASSERT_TRUE(merged.merge_payload(whole));
  const auto decoded = SampleDag::deserialize(whole);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(merged == *decoded);
  EXPECT_TRUE(merged == dag);
  EXPECT_EQ(merged.serialize(), whole);
}

TEST(DagBuilder, MalformedGossipIsIgnored) {
  AdagAutomaton a(0, 3);
  std::vector<Outgoing> out;
  const Bytes junk = {0xde, 0xad};
  const Incoming in{1, junk};
  a.step(&in, FdValue::of_quorum(ProcessSet{0}), out);
  EXPECT_EQ(a.core().dag().total_nodes(), 1u);  // only the own sample
}

TEST(PathHelpers, ParticipantsAndTrusted) {
  SampleDag dag(4);
  const NodeRef a = dag.take_sample(0, FdValue::of_quorum(ProcessSet{0, 1}));
  const NodeRef b = dag.take_sample(1, FdValue::of_quorum(ProcessSet{1, 2}));
  const std::vector<NodeRef> path = {a, b};
  EXPECT_EQ(participants_of(path), (ProcessSet{0, 1}));
  EXPECT_EQ(trusted_of(dag, path), (ProcessSet{0, 1, 2}));
}

TEST(PathHelpers, TrustedIgnoresNonQuorumValues) {
  SampleDag dag(2);
  const NodeRef a = dag.take_sample(0, FdValue::of_leader(1));
  const std::vector<NodeRef> path = {a};
  EXPECT_EQ(trusted_of(dag, path), ProcessSet{});
  EXPECT_EQ(participants_of(path), ProcessSet{0});
}

}  // namespace
}  // namespace nucon
