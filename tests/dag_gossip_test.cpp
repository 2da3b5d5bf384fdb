// Incremental DAG gossip: the transformations send each receiver only the
// chain suffixes past its acknowledged frontier. Merging such a delta must
// give exactly the DAG that merging the sender's whole DAG gives, at every
// gossip of real runs, and hostile payloads must be dropped whole.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "consensus_test_util.hpp"
#include "core/stacked_nuc.hpp"
#include "dag/dag_builder.hpp"

namespace nucon {
namespace {

FdValue q(std::initializer_list<Pid> pids) {
  return FdValue::of_quorum(ProcessSet(pids));
}

// --- differential check against merge_from --------------------------------

/// The whole DAG behind every gossip payload in flight, keyed by the sealed
/// buffer the scheduler delivers (a buffer stays alive while in flight, so
/// its address is a unique key until its receipt erases the entry).
struct GossipLedger {
  std::map<const Bytes*, std::shared_ptr<const SampleDag>> in_flight;
  std::size_t checked = 0;
  std::size_t partial = 0;  ///< receipts in the delta form (header < 0)
};

/// Forwards to a DAG-gossiping automaton. On every gossip receipt it checks
/// the delta against merge_from of the sender's whole DAG at send time;
/// after every step it files the step's gossip sends in the ledger.
/// `framed`: payloads carry StackedNuc's channel byte (0 = the DAG).
class GossipChecker final : public ConsensusAutomaton {
 public:
  GossipChecker(std::unique_ptr<Automaton> inner, const DagCore& core,
                const ConsensusAutomaton* consensus, bool framed,
                GossipLedger& ledger)
      : inner_(std::move(inner)), core_(core), consensus_(consensus),
        framed_(framed), ledger_(ledger) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    std::optional<SampleDag> expected;
    if (in != nullptr && is_gossip(*in->payload)) {
      const Bytes delta = framed_ ? Bytes(in->payload->begin() + 1,
                                          in->payload->end())
                                  : *in->payload;
      const auto sent = ledger_.in_flight.find(in->payload);
      EXPECT_NE(sent, ledger_.in_flight.end()) << "unfiled gossip payload";
      if (sent != ledger_.in_flight.end()) {
        SampleDag via_delta = core_.dag();
        EXPECT_TRUE(via_delta.merge_payload(delta));
        SampleDag via_whole = core_.dag();
        via_whole.merge_from(*sent->second);
        EXPECT_TRUE(via_delta == via_whole) << "at " << core_.self();
        EXPECT_EQ(via_delta.serialize(), via_whole.serialize());
        ledger_.in_flight.erase(sent);
        ++ledger_.checked;
        ledger_.partial += ByteReader(delta).svarint().value_or(0) < 0;
        expected = std::move(via_delta);
      }
    }
    const std::size_t before = out.size();
    inner_->step(in, d, out);
    if (expected) {
      // The automaton merged exactly that, then took its own sample.
      std::vector<std::uint32_t> f = expected->frontier();
      ++f[static_cast<std::size_t>(core_.self())];
      EXPECT_EQ(core_.dag().frontier(), f);
    }
    std::shared_ptr<const SampleDag> snapshot;
    for (std::size_t i = before; i < out.size(); ++i) {
      if (!is_gossip(out[i].payload.get())) continue;
      if (!snapshot) snapshot = std::make_shared<SampleDag>(core_.dag());
      ledger_.in_flight[out[i].payload.raw()] = snapshot;
    }
  }

  [[nodiscard]] std::optional<Value> decision() const override {
    return consensus_ != nullptr ? consensus_->decision() : std::nullopt;
  }

 private:
  [[nodiscard]] bool is_gossip(const Bytes& payload) const {
    return !framed_ || (!payload.empty() && payload.front() == 0);
  }

  std::unique_ptr<Automaton> inner_;
  const DagCore& core_;
  const ConsensusAutomaton* consensus_;
  bool framed_;
  GossipLedger& ledger_;
};

/// Ends a run at the first failed check: a broken delta path can keep a
/// run from deciding while undelivered gossip pins DAG snapshots.
bool stop_on_failure(const std::vector<std::unique_ptr<Automaton>>&) {
  return testing::Test::HasFailure();
}

struct DeltaParam {
  Pid n;
  Pid crashes;
  std::uint64_t seed;
};

std::string delta_name(const testing::TestParamInfo<DeltaParam>& info) {
  return "n" + std::to_string(info.param.n) + "_c" +
         std::to_string(info.param.crashes) + "_s" +
         std::to_string(info.param.seed);
}

FailurePattern crash_pattern(const DeltaParam& p) {
  FailurePattern fp(p.n);
  for (Pid c = 0; c < p.crashes; ++c) {
    fp.set_crash(p.n - 1 - c, static_cast<Time>(40 + 35 * c));
  }
  return fp;
}

class DeltaGossip : public testing::TestWithParam<DeltaParam> {};

TEST_P(DeltaGossip, SigmaNuToPlusDeltasEqualWholeDagMerges) {
  const FailurePattern fp = crash_pattern(GetParam());
  SigmaNuOptions so;
  so.stabilize_at = 60;
  so.seed = GetParam().seed;
  so.faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  SigmaNuOracle oracle(fp, so);
  GossipLedger ledger;
  const AutomatonFactory make = [&](Pid p) -> std::unique_ptr<Automaton> {
    auto inner = std::make_unique<SigmaNuToPlus>(p, fp.n());
    const DagCore& core = inner->core();
    return std::make_unique<GossipChecker>(std::move(inner), core, nullptr,
                                           false, ledger);
  };
  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = 3000;
  opts.stop_when = stop_on_failure;
  (void)simulate(fp, oracle, make, opts);
  EXPECT_GE(ledger.checked, 10u);
  EXPECT_GT(ledger.partial, 0u);
}

TEST_P(DeltaGossip, StackedNucDeltasEqualWholeDagMerges) {
  const FailurePattern fp = crash_pattern(GetParam());
  OmegaOptions oo;
  oo.stabilize_at = 80;
  oo.seed = GetParam().seed;
  OmegaOracle omega(fp, oo);
  SigmaNuOptions so;
  so.stabilize_at = 80;
  so.seed = GetParam().seed + 0x51;
  so.faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  SigmaNuOracle sigma_nu(fp, so);
  ComposedOracle oracle(omega, sigma_nu);
  GossipLedger ledger;
  const ConsensusFactory make =
      [&](Pid p, Value v) -> std::unique_ptr<ConsensusAutomaton> {
    auto inner = std::make_unique<StackedNuc>(p, v, fp.n());
    const DagCore& core = inner->transformation().core();
    const ConsensusAutomaton* consensus = inner.get();
    return std::make_unique<GossipChecker>(std::move(inner), core, consensus,
                                           true, ledger);
  };
  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = 50'000;
  opts.stop_when = [&fp](const std::vector<std::unique_ptr<Automaton>>& a) {
    return stop_on_failure(a) || all_correct_decided(fp, a);
  };
  const auto stats = run_consensus(fp, oracle, make,
                                   testutil::mixed_proposals(fp.n()), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
  EXPECT_GE(ledger.checked, 10u);
  EXPECT_GT(ledger.partial, 0u);
}

std::vector<DeltaParam> delta_params() {
  std::vector<DeltaParam> out;
  for (Pid n : {3, 6}) {
    for (Pid crashes : {1, n / 2 + 1}) {
      for (std::uint64_t seed : {1ull, 2ull}) out.push_back({n, crashes, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaGossip, testing::ValuesIn(delta_params()),
                         delta_name);

TEST(DeltaGossipWide, SigmaNuToPlusAt65Processes) {
  // Two-word quorum sets and a two-byte header; gossip every 8 steps so
  // every process gossips within a short run.
  const Pid n = 65;
  FailurePattern fp(n);
  fp.set_crash(7, 300);
  fp.set_crash(64, 900);
  SigmaNuOptions so;
  so.stabilize_at = 200;
  so.seed = 5;
  SigmaNuOracle oracle(fp, so);
  GossipLedger ledger;
  const AutomatonFactory make = [&](Pid p) -> std::unique_ptr<Automaton> {
    auto inner = std::make_unique<SigmaNuToPlus>(p, n, 8);
    const DagCore& core = inner->core();
    return std::make_unique<GossipChecker>(std::move(inner), core, nullptr,
                                           false, ledger);
  };
  SchedulerOptions opts;
  opts.seed = 5;
  opts.max_steps = 65 * 30;
  opts.stop_when = stop_on_failure;
  (void)simulate(fp, oracle, make, opts);
  EXPECT_GT(ledger.checked, 500u);
  EXPECT_GT(ledger.partial, 0u);
}

TEST(DeltaGossip, FanOutIsOneBroadcastOfPerReceiverPayloads) {
  DagCore core(1, 4);
  core.on_step(nullptr, q({1}));
  const PayloadCounters before = SharedBytes::counters();
  std::vector<Outgoing> out;
  core.gossip_deltas(out);
  const PayloadCounters c = SharedBytes::counters() - before;
  EXPECT_EQ(c.broadcasts, 1u);
  EXPECT_EQ(c.copied_bytes, 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].to, 0);
  EXPECT_EQ(out[1].to, 2);
  EXPECT_EQ(out[2].to, 3);
  EXPECT_NE(out[0].payload.raw(), out[1].payload.raw());
}

// --- hostile payloads -----------------------------------------------------

/// Receiver 1 holds (0,1), (0,2) and (1,1), (1,2); sender 0 also holds
/// (0,3), (0,4) and knows only (1,1). So the honest delta re-sends (0,1)
/// and (0,2), which the receiver skips, and carries (0,3) and (0,4).
struct DeltaPair {
  DagCore sender{0, 3};
  DagCore receiver{1, 3};

  static void deliver(DagCore& to, Pid from, const Bytes& payload,
                      const FdValue& d) {
    const Incoming in{from, &payload};
    to.on_step(&in, d);
  }

  DeltaPair() {
    receiver.on_step(nullptr, q({1}));
    deliver(sender, 1, receiver.gossip(), q({0}));
    sender.on_step(nullptr, q({0, 1}));
    deliver(receiver, 0, sender.gossip(), q({1}));
    sender.on_step(nullptr, q({0}));
    sender.on_step(nullptr, q({0, 2}));
  }

  [[nodiscard]] Bytes delta() const {
    return sender.dag().encode_since(sender.dag().acked_frontier(1));
  }

  /// Delivers `payload` to a copy of the receiver and reports whether it
  /// was dropped whole: the copy's DAG gains only its own new sample.
  testing::AssertionResult dropped(const Bytes& payload) {
    SampleDag expected = receiver.dag();
    expected.take_sample(1, q({1, 2}));
    DagCore copy = receiver;
    deliver(copy, 0, payload, q({1, 2}));
    if (copy.dag() == expected) return testing::AssertionSuccess();
    return testing::AssertionFailure() << "payload of " << payload.size()
                                       << " bytes changed the DAG";
  }
};

TEST(HostileDelta, HonestDeltaSkipsWhatTheReceiverHolds) {
  DeltaPair pair;
  const Bytes delta = pair.delta();
  ASSERT_EQ(pair.sender.dag().acked_frontier(1),
            (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_FALSE(pair.dropped(delta));
  SampleDag expected = pair.receiver.dag();
  expected.merge_from(pair.sender.dag());
  expected.take_sample(1, q({1, 2}));
  DeltaPair::deliver(pair.receiver, 0, delta, q({1, 2}));
  EXPECT_TRUE(pair.receiver.dag() == expected);
}

TEST(HostileDelta, EveryTruncationIsDropped) {
  DeltaPair pair;
  for (const Bytes& payload : {pair.delta(), pair.sender.gossip()}) {
    for (std::size_t len = 0; len < payload.size(); ++len) {
      EXPECT_TRUE(pair.dropped(Bytes(payload.begin(),
                                     payload.begin() +
                                         static_cast<std::ptrdiff_t>(len))))
          << "truncated to " << len;
    }
  }
}

TEST(HostileDelta, SuffixStartingPastTheReceiverIsDropped) {
  DeltaPair pair;
  ASSERT_EQ(pair.receiver.dag().count_of(0), 2u);
  // Starts at (0,4): accepting it would leave a hole at (0,3).
  EXPECT_TRUE(pair.dropped(pair.sender.dag().encode_since(
      std::vector<std::uint32_t>{3, 1, 0})));
}

TEST(HostileDelta, ForeignSizedPayloadIsDropped) {
  DeltaPair pair;
  SampleDag other(4);
  other.take_sample(0, q({0}));
  EXPECT_TRUE(pair.dropped(other.serialize()));

  for (const auto& [sender_n, receiver_n] : {std::pair{64, 65}, std::pair{65, 64}}) {
    SampleDag from(sender_n);
    from.take_sample(0, q({0, 63}));
    from.take_sample(1, q({1}));
    DagCore to(1, receiver_n);
    to.on_step(nullptr, q({1}));
    for (const Bytes& payload :
         {from.serialize(), from.encode_since(from.acked_frontier(1))}) {
      SampleDag expected = to.dag();
      expected.take_sample(1, q({1}));
      DagCore copy = to;
      DeltaPair::deliver(copy, 0, payload, q({1}));
      EXPECT_TRUE(copy.dag() == expected) << sender_n << " -> " << receiver_n;
    }
  }
}

TEST(HostileDelta, LengthBeyondTheInputIsDropped) {
  DeltaPair pair;
  Bytes payload = pair.delta();
  // Layout: header -3, then chain 0's start 0 and length 4.
  ASSERT_EQ(payload[0], 0x05);
  ASSERT_EQ(payload[1], 0x00);
  ASSERT_EQ(payload[2], 0x04);
  payload[2] = 0x7f;
  EXPECT_TRUE(pair.dropped(payload));
}

TEST(HostileDelta, TrailingBytesAreDropped) {
  DeltaPair pair;
  Bytes payload = pair.delta();
  payload.push_back(0x00);
  EXPECT_TRUE(pair.dropped(payload));
}

TEST(HostileDelta, BadFlagInTheSkippedPrefixIsDropped) {
  DeltaPair pair;
  Bytes payload = pair.delta();
  // Byte 3 is the flags byte of (0,1), a node the receiver already holds.
  ASSERT_EQ(payload[3], 0x02);
  payload[3] = 0x08;
  EXPECT_TRUE(pair.dropped(payload));
}

TEST(HostileDelta, ViewEntryAbove32BitsIsDropped) {
  DeltaPair pair;
  // Chain 0 from the receiver's count, one node whose vc[0] is given.
  const auto one_node = [](std::uint64_t vc0) {
    ByteWriter w;
    w.svarint(-3);
    w.uvarint(2);  // chain 0: start at (0,3)
    w.uvarint(1);
    w.u8(0);       // empty FdValue
    w.uvarint(vc0);
    w.uvarint(0);
    w.uvarint(0);
    for (int chain = 1; chain < 3; ++chain) {
      w.uvarint(0);
      w.uvarint(0);
    }
    return w.take();
  };
  EXPECT_FALSE(pair.dropped(one_node(2)));
  EXPECT_TRUE(pair.dropped(one_node((std::uint64_t{1} << 32) + 1)));
}

}  // namespace
}  // namespace nucon
