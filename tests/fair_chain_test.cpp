// Properties of the Lemma 4.8-style fair chains, including the batching
// parameter that trades path length against interleaving granularity, and
// the walk DagCore keeps across DAG growth against the linear walk.
#include <gtest/gtest.h>

#include "dag/dag_builder.hpp"
#include "dag_reference.hpp"
#include "fd/sigma_nu.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace nucon {
namespace {

SampleDag gossiped_dag(Pid n, std::int64_t steps, std::uint64_t seed) {
  const FailurePattern fp(n);
  SigmaNuOptions so;
  so.seed = seed;
  SigmaNuOracle oracle(fp, so);
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  const SimResult sim = simulate(fp, oracle, make_adag(n), opts);
  return static_cast<const AdagAutomaton*>(sim.automata[0].get())
      ->core()
      .dag();
}

struct ChainParam {
  Pid n;
  int batch;
  std::uint64_t seed;
};

class FairChainSweep : public testing::TestWithParam<ChainParam> {};

TEST_P(FairChainSweep, ChainsAreGenuinePaths) {
  const auto [n, batch, seed] = GetParam();
  const SampleDag dag = gossiped_dag(n, 1200, seed);
  const auto chain = dag.fair_chain(NodeRef{0, 1}, batch);
  ASSERT_GT(chain.size(), 10u);
  EXPECT_EQ(chain.front(), (NodeRef{0, 1}));
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    ASSERT_TRUE(dag.has_edge(chain[i], chain[i + 1]))
        << "broken edge at " << i;
  }
}

TEST_P(FairChainSweep, ChainsCoverEveryProcess) {
  const auto [n, batch, seed] = GetParam();
  const SampleDag dag = gossiped_dag(n, 1200, seed);
  const auto chain = dag.fair_chain(NodeRef{0, 1}, batch);
  EXPECT_EQ(participants_of(std::span<const NodeRef>(chain)),
            ProcessSet::full(n));
}

TEST_P(FairChainSweep, NoSampleAppearsTwice) {
  const auto [n, batch, seed] = GetParam();
  const SampleDag dag = gossiped_dag(n, 800, seed);
  const auto chain = dag.fair_chain(NodeRef{0, 1}, batch);
  std::vector<std::uint64_t> keys;
  for (const NodeRef& v : chain) {
    keys.push_back((static_cast<std::uint64_t>(v.q) << 32) | v.k);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FairChainSweep,
    testing::Values(ChainParam{2, 1, 1}, ChainParam{2, 8, 1},
                    ChainParam{3, 1, 2}, ChainParam{3, 8, 2},
                    ChainParam{3, 32, 2}, ChainParam{5, 8, 3},
                    ChainParam{5, 16, 4}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.batch) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(FairChain, LargerBatchesGiveLongerChains) {
  const SampleDag dag = gossiped_dag(3, 2000, 9);
  const auto short_chain = dag.fair_chain(NodeRef{0, 1}, 1);
  const auto long_chain = dag.fair_chain(NodeRef{0, 1}, 16);
  EXPECT_GT(long_chain.size(), short_chain.size() * 2);
}

TEST(FairChain, MissingRootGivesEmptyChain) {
  const SampleDag dag(3);
  EXPECT_TRUE(dag.fair_chain(NodeRef{0, 1}).empty());
  EXPECT_TRUE(dag.fair_chain(NodeRef{2, 7}).empty());
}

TEST(FairChain, SingleProcessChainIsItsWholeSuffix) {
  SampleDag dag(2);
  for (int i = 0; i < 10; ++i) dag.take_sample(1, FdValue::of_leader(1));
  const auto chain = dag.fair_chain(NodeRef{1, 4}, 4);
  EXPECT_EQ(chain.size(), 7u);  // samples 4..10
  EXPECT_EQ(chain.front(), (NodeRef{1, 4}));
  EXPECT_EQ(chain.back(), (NodeRef{1, 10}));
}

TEST(FairChain, FreshWalkIsTheLinearWalk) {
  for (const auto& [n, seed] : {std::pair{3, 2ull}, std::pair{5, 4ull}}) {
    const SampleDag dag = gossiped_dag(n, 800, seed);
    for (std::uint32_t k = 1; k <= dag.count_of(0); k += 7) {
      for (int batch : {1, 2, 8}) {
        EXPECT_EQ(dag.fair_chain(NodeRef{0, k}, batch),
                  testref::fair_chain(dag, NodeRef{0, k}, batch))
            << "n " << n << " k " << k << " batch " << batch;
      }
    }
  }
}

/// Four DagCores gossiping deltas at random, delivered in random order, so
/// chains grow unevenly and stale deltas re-send held nodes. Each process
/// keeps a barrier that moves at random points, to its newest sample as
/// the transformations move it or to any node it holds, and walks from it
/// after every step.
class KeptWalkGrowth : public testing::TestWithParam<int> {};

TEST_P(KeptWalkGrowth, EqualsTheLinearWalkAsTheDagGrows) {
  const int batch = GetParam();
  const Pid n = 4;
  Rng rng(0x5eed + static_cast<std::uint64_t>(batch));
  std::vector<DagCore> cores;
  for (Pid p = 0; p < n; ++p) cores.emplace_back(p, n);
  std::vector<NodeRef> barrier(static_cast<std::size_t>(n));
  struct InFlight {
    Pid from;
    Pid to;
    SharedBytes payload;
  };
  std::vector<InFlight> pending;
  for (int step = 0; step < 4000; ++step) {
    const auto p = static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
    DagCore& core = cores[static_cast<std::size_t>(p)];
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].to == p) mine.push_back(i);
    }
    std::optional<InFlight> msg;
    if (!mine.empty() && rng.below(3) != 0) {
      const std::size_t i = mine[rng.below(mine.size())];
      msg = pending[i];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    const Incoming in{msg ? msg->from : -1,
                      msg ? ByteView(msg->payload.get()) : ByteView()};
    core.on_step(msg ? &in : nullptr,
                 FdValue::of_quorum(ProcessSet::single(p)));
    if (rng.below(4) == 0) {
      std::vector<Outgoing> out;
      core.gossip_deltas(out);
      for (Outgoing& o : out) pending.push_back({p, o.to, std::move(o.payload)});
    }
    NodeRef& u = barrier[static_cast<std::size_t>(p)];
    if (u.q < 0 || rng.below(12) == 0) {
      if (rng.below(2) == 0) {
        u = NodeRef{p, core.k()};
      } else {
        const auto q = static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
        const std::uint32_t count = core.dag().count_of(q);
        if (count > 0) {
          u = NodeRef{q, static_cast<std::uint32_t>(1 + rng.below(count))};
        }
      }
    }
    ASSERT_EQ(core.fair_chain(u, batch),
              testref::fair_chain(core.dag(), u, batch))
        << "step " << step << " at " << p;
  }
  DagWork work;
  for (const DagCore& core : cores) work += core.work();
  EXPECT_GT(work.walks_resumed, 10 * work.walks_restarted);
  EXPECT_GT(work.walks_restarted, 100);
  EXPECT_GT(work.walk_searches, 0);
  EXPECT_GT(work.held_skipped, 0);
  EXPECT_GT(work.nodes_decoded, 0);
  EXPECT_EQ(work.held_validated, 0);
}

INSTANTIATE_TEST_SUITE_P(Batch, KeptWalkGrowth, testing::Values(1, 2, 8),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace nucon
