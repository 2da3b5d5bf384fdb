// Tests of the DAG-of-samples structure: the vector-clock edge relation,
// prefix-closure, merging, serialization, and chain extraction
// (paper §4.1, Observations 4.1-4.2).
#include "dag/sample_dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace nucon {
namespace {

FdValue q(std::initializer_list<Pid> pids) {
  return FdValue::of_quorum(ProcessSet(pids));
}

TEST(SampleDag, EmptyDag) {
  const SampleDag dag(3);
  EXPECT_EQ(dag.total_nodes(), 0u);
  EXPECT_EQ(dag.total_edges(), 0u);
  EXPECT_EQ(dag.count_of(0), 0u);
  EXPECT_FALSE(dag.contains(NodeRef{0, 1}));
}

TEST(SampleDag, TakeSampleAppendsToOwnChain) {
  SampleDag dag(3);
  const NodeRef v1 = dag.take_sample(0, q({0}));
  EXPECT_EQ(v1, (NodeRef{0, 1}));
  const NodeRef v2 = dag.take_sample(0, q({0, 1}));
  EXPECT_EQ(v2, (NodeRef{0, 2}));
  EXPECT_EQ(dag.count_of(0), 2u);
  EXPECT_EQ(dag.node(v1).d, q({0}));
  EXPECT_EQ(dag.node(v2).d, q({0, 1}));
}

TEST(SampleDag, OwnSamplesFormAChain) {
  // Observation 4.2: later own samples are descendants of earlier ones.
  SampleDag dag(2);
  const NodeRef a = dag.take_sample(0, q({0}));
  const NodeRef b = dag.take_sample(0, q({0}));
  const NodeRef c = dag.take_sample(0, q({0}));
  EXPECT_TRUE(dag.has_edge(a, b));
  EXPECT_TRUE(dag.has_edge(b, c));
  EXPECT_TRUE(dag.has_edge(a, c));  // reachability = edge in this encoding
  EXPECT_FALSE(dag.has_edge(c, a));
  EXPECT_FALSE(dag.has_edge(b, a));
}

TEST(SampleDag, EdgesFromEveryKnownNode) {
  SampleDag dag(3);
  const NodeRef a = dag.take_sample(0, q({0}));
  const NodeRef b = dag.take_sample(1, q({1}));
  const NodeRef c = dag.take_sample(2, q({2}));
  EXPECT_TRUE(dag.has_edge(a, c));
  EXPECT_TRUE(dag.has_edge(b, c));
  EXPECT_TRUE(dag.has_edge(a, b));
  EXPECT_FALSE(dag.has_edge(c, a));
}

TEST(SampleDag, ConcurrentSamplesHaveNoEdge) {
  // Two processes sampling in different replicas, before any gossip.
  SampleDag dag_p(2);
  SampleDag dag_q(2);
  const NodeRef vp = dag_p.take_sample(0, q({0}));
  const NodeRef vq = dag_q.take_sample(1, q({1}));
  dag_p.merge_from(dag_q);
  EXPECT_TRUE(dag_p.contains(vp));
  EXPECT_TRUE(dag_p.contains(vq));
  EXPECT_FALSE(dag_p.has_edge(vp, vq));
  EXPECT_FALSE(dag_p.has_edge(vq, vp));
}

TEST(SampleDag, MergePreservesNodeData) {
  SampleDag a(2);
  a.take_sample(0, q({0}));
  SampleDag b(2);
  b.merge_from(a);
  EXPECT_EQ(b.node(NodeRef{0, 1}).d, q({0}));
  // Merging is idempotent and monotone (Observation 4.1).
  b.merge_from(a);
  EXPECT_EQ(b.total_nodes(), 1u);
}

TEST(SampleDag, GossipTransfersEdges) {
  SampleDag a(2);
  const NodeRef v1 = a.take_sample(0, q({0}));
  SampleDag b(2);
  b.merge_from(a);
  const NodeRef v2 = b.take_sample(1, q({1}));  // sees v1
  a.merge_from(b);
  EXPECT_TRUE(a.has_edge(v1, v2));
  const NodeRef v3 = a.take_sample(0, q({0}));
  EXPECT_TRUE(a.has_edge(v2, v3));
}

TEST(SampleDag, SerializeRoundTrip) {
  SampleDag a(3);
  a.take_sample(0, q({0, 1}));
  a.take_sample(1, q({1}));
  a.take_sample(0, q({0}));
  const auto decoded = SampleDag::deserialize(a.serialize());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->n(), 3);
  EXPECT_EQ(decoded->total_nodes(), 3u);
  EXPECT_EQ(decoded->total_edges(), a.total_edges());
  EXPECT_EQ(decoded->node(NodeRef{0, 2}).d, q({0}));
  EXPECT_TRUE(std::ranges::equal(decoded->node(NodeRef{0, 2}).vc,
                                 a.node(NodeRef{0, 2}).vc));
}

TEST(SampleDag, SerializeBytesArePinned) {
  // The whole-DAG wire format (A_DAG's gossip, DagCore::save): n as a
  // zig-zag varint, then per creator the chain length and each node as its
  // FdValue followed by its creation view, one varint per process.
  SampleDag dag(3);
  FdValue lq = FdValue::of_leader(1);
  lq.set_quorum(ProcessSet{0, 1});
  dag.take_sample(0, lq);
  dag.take_sample(1, q({1, 2}));
  dag.take_sample(0, FdValue::of_leader(2));
  FdValue all = FdValue::of_leader(0);
  all.set_quorum(ProcessSet{0, 1, 2});
  dag.take_sample(2, all);
  const Bytes expected = {
      0x06,                                      // n = 3
      0x02,                                      // chain 0: 2 samples
      0x03, 0x02, 0x03, 0, 0, 0, 0, 0, 0, 0,     //   leader 1, quorum {0,1}
      0x00, 0x00, 0x00,                          //   vc [0,0,0]
      0x01, 0x04,                                //   leader 2
      0x01, 0x01, 0x00,                          //   vc [1,1,0]
      0x01,                                      // chain 1: 1 sample
      0x02, 0x06, 0, 0, 0, 0, 0, 0, 0,           //   quorum {1,2}
      0x01, 0x00, 0x00,                          //   vc [1,0,0]
      0x01,                                      // chain 2: 1 sample
      0x03, 0x00, 0x07, 0, 0, 0, 0, 0, 0, 0,     //   leader 0, quorum {0,1,2}
      0x02, 0x01, 0x00,                          //   vc [2,1,0]
  };
  EXPECT_EQ(dag.serialize(), expected);
}

TEST(SampleDag, DeserializeRejectsAShrinkingView) {
  // Two processes; chain 0 holds (0,1) with view {0,1} and (0,2) with the
  // given view; chain 1 holds (1,1) with view {0,0}.
  const auto whole = [](std::uint8_t vc1) {
    return Bytes{0x04,                    // n = 2
                 0x02,                    // chain 0: 2 samples
                 0x00, 0x00, 0x01,        //   empty, vc [0,1]
                 0x00, 0x01, vc1,         //   empty, vc [1,vc1]
                 0x01,                    // chain 1: 1 sample
                 0x00, 0x00, 0x00};       //   empty, vc [0,0]
  };
  EXPECT_TRUE(SampleDag::deserialize(whole(1)));
  EXPECT_FALSE(SampleDag::deserialize(whole(0)));
}

TEST(SampleDag, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SampleDag::deserialize(Bytes{}));
  EXPECT_FALSE(SampleDag::deserialize(Bytes{0xFF, 0xFF, 0xFF}));
  SampleDag a(2);
  a.take_sample(0, q({0}));
  Bytes buf = a.serialize();
  buf.pop_back();
  EXPECT_FALSE(SampleDag::deserialize(buf));

  // A creation-view entry must fit in 32 bits: 2^32+1 is rejected, not
  // truncated to 1.
  const auto one_node = [](std::uint64_t vc0) {
    ByteWriter w;
    w.pid(1);        // n = 1
    w.uvarint(1);    // one sample
    w.u8(0);         // empty FdValue
    w.uvarint(vc0);  // vc[0]
    return w.take();
  };
  ASSERT_TRUE(SampleDag::deserialize(one_node(1)));
  EXPECT_FALSE(SampleDag::deserialize(one_node((std::uint64_t{1} << 32) + 1)));
}

TEST(SampleDag, AckedFrontierIsTheReceiversLatestView) {
  SampleDag dag(3);
  EXPECT_EQ(dag.acked_frontier(1), (std::vector<std::uint32_t>{0, 0, 0}));
  dag.take_sample(0, q({0}));
  dag.take_sample(2, q({2}));
  dag.take_sample(1, q({1}));  // sees (0,1) and (2,1)
  dag.take_sample(0, q({0}));
  // Process 1 held (0,1), (2,1) and its own sample when it took it.
  EXPECT_EQ(dag.acked_frontier(1), (std::vector<std::uint32_t>{1, 1, 1}));
  EXPECT_EQ(dag.acked_frontier(0), (std::vector<std::uint32_t>{2, 1, 1}));
}

TEST(SampleDag, DeltaFromTheEmptyFrontierIsTheWholeDag) {
  SampleDag dag(3);
  dag.take_sample(0, q({0}));
  dag.take_sample(1, q({1}));
  EXPECT_EQ(dag.encode_since(std::vector<std::uint32_t>{0, 0, 0}),
            dag.serialize());
}

TEST(SampleDag, DeltaCarriesOnlyTheSuffixes) {
  SampleDag sender(3);
  for (int i = 0; i < 7; ++i) {
    sender.take_sample(static_cast<Pid>(i % 3), q({static_cast<Pid>(i % 3)}));
  }
  SampleDag receiver(3);
  receiver.merge_from(sender);
  sender.take_sample(0, q({0}));
  sender.take_sample(2, q({2}));

  const Bytes delta = sender.encode_since(receiver.frontier());
  EXPECT_LT(delta.size(), sender.serialize().size());
  SampleDag via_delta = receiver;
  ASSERT_TRUE(via_delta.merge_payload(delta));
  SampleDag via_whole = receiver;
  via_whole.merge_from(sender);
  EXPECT_TRUE(via_delta == via_whole);
  EXPECT_TRUE(via_delta == sender);
  EXPECT_EQ(via_delta.serialize(), sender.serialize());

  // A delta from an older frontier re-sends nodes the receiver holds; they
  // are validated and skipped.
  SampleDag again = via_delta;
  ASSERT_TRUE(again.merge_payload(
      sender.encode_since(std::vector<std::uint32_t>{1, 0, 1})));
  EXPECT_TRUE(again == sender);
}

TEST(SampleDag, DeltaStartingPastTheReceiverIsRejected) {
  SampleDag sender(2);
  sender.take_sample(0, q({0}));
  sender.take_sample(0, q({0}));
  SampleDag receiver(2);
  const SampleDag before = receiver;
  EXPECT_FALSE(receiver.merge_payload(
      sender.encode_since(std::vector<std::uint32_t>{1, 0})));
  EXPECT_TRUE(receiver == before);
}

TEST(SampleDag, ConeContainsOnlyDescendants) {
  SampleDag dag(3);
  const NodeRef a = dag.take_sample(0, q({0}));
  const NodeRef b = dag.take_sample(1, q({1}));
  const NodeRef c = dag.take_sample(2, q({2}));
  const NodeRef d = dag.take_sample(0, q({0}));

  const auto cone = dag.cone_topo(b);
  EXPECT_EQ(cone.size(), 3u);  // b, c, d — not a
  EXPECT_EQ(cone.front(), b);
  for (const NodeRef& v : cone) {
    EXPECT_TRUE(dag.in_cone(b, v));
    EXPECT_NE(v, a);
  }
  (void)c;
  (void)d;
}

TEST(SampleDag, ConeToposortRespectsEdges) {
  SampleDag dag(3);
  for (int i = 0; i < 5; ++i) {
    dag.take_sample(static_cast<Pid>(i % 3), q({static_cast<Pid>(i % 3)}));
  }
  const NodeRef root{0, 1};
  const auto order = dag.cone_topo(root);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      EXPECT_FALSE(dag.has_edge(order[j], order[i]))
          << "edge goes backwards in topo order";
    }
  }
}

TEST(SampleDag, GreedyChainIsARealPath) {
  SampleDag dag(3);
  for (int i = 0; i < 9; ++i) {
    dag.take_sample(static_cast<Pid>(i % 3), q({static_cast<Pid>(i % 3)}));
  }
  const NodeRef root{0, 1};
  const auto chain = dag.greedy_chain(root);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.front(), root);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    EXPECT_TRUE(dag.has_edge(chain[i], chain[i + 1]))
        << "consecutive chain nodes must be DAG edges";
  }
}

TEST(SampleDag, GreedyChainOnLinearHistoryIsEverything) {
  // One process only: the chain must include every node.
  SampleDag dag(2);
  for (int i = 0; i < 6; ++i) dag.take_sample(0, q({0}));
  EXPECT_EQ(dag.greedy_chain(NodeRef{0, 1}).size(), 6u);
  EXPECT_EQ(dag.greedy_chain(NodeRef{0, 4}).size(), 3u);
}

TEST(SampleDag, TotalEdgesCountsPredecessors) {
  SampleDag dag(2);
  dag.take_sample(0, q({0}));  // 0 preds
  dag.take_sample(0, q({0}));  // 1 pred
  dag.take_sample(1, q({1}));  // 2 preds
  EXPECT_EQ(dag.total_edges(), 3u);
}

TEST(SampleDag, FrontierMatchesCounts) {
  SampleDag dag(3);
  dag.take_sample(2, q({2}));
  dag.take_sample(2, q({2}));
  dag.take_sample(0, q({0}));
  const auto f = dag.frontier();
  EXPECT_EQ(f, (std::vector<std::uint32_t>{1, 0, 2}));
}

}  // namespace
}  // namespace nucon
