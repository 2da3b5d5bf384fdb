// Incremental DAG gossip: the transformations send each receiver only the
// chain suffixes past its acknowledged frontier. Merging such a delta must
// give exactly the DAG that merging the sender's whole DAG gives, at every
// gossip of real runs, and hostile payloads must be dropped whole.
//
// The same runs check the two fast paths on the sample-DAG path against
// their verbatim definitions (dag_reference.hpp): every receipt, and
// mutations of some of them, against the two-pass decoder, and after every
// step the kept fair-chain walk against the linear walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "algo/harness.hpp"
#include "core/stacked_nuc.hpp"
#include "dag/dag_builder.hpp"
#include "dag_reference.hpp"
#include "fd/composed.hpp"
#include "fd/omega.hpp"
#include "fd/sigma_nu.hpp"

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
  std::size_t walks_checked = 0;
  std::size_t mutate_budget = 6;  ///< receipts whose mutations are checked
  std::size_t mutated = 0;
  std::size_t held_flips = 0;  ///< flips inside nodes the receiver holds
  std::size_t new_flips = 0;   ///< flips inside nodes new to it
};

// --- differential check against the two-pass decoder ----------------------

/// Merges `payload` into a copy of `dag` and compares with the two-pass
/// reference: the same accept or drop, the same nodes, and the same
/// encoding cache, whole and since `from`.
testing::AssertionResult merges_as_reference(const SampleDag& dag,
                                             const Bytes& payload,
                                             std::span<const std::uint32_t> from) {
  const testref::RefDag before = testref::nodes_of(dag);
  const auto want = testref::merge_payload(before, payload);
  SampleDag got = dag;
  const bool accepted = got.merge_payload(payload);
  if (accepted != want.has_value()) {
    return testing::AssertionFailure()
           << (accepted ? "accepted" : "dropped") << " a payload the reference "
           << (accepted ? "drops" : "accepts");
  }
  const testref::RefDag& after = want ? *want : before;
  if (testref::nodes_of(got) != after) {
    return testing::AssertionFailure() << "different nodes";
  }
  const std::vector<std::uint32_t> zeros(static_cast<std::size_t>(dag.n()), 0);
  if (got.serialize() != testref::encode_since(after, zeros)) {
    return testing::AssertionFailure() << "different whole encoding";
  }
  if (got.encode_since(from) != testref::encode_since(after, from)) {
    return testing::AssertionFailure() << "different delta encoding";
  }
  return testing::AssertionSuccess();
}

/// Where one chain's part of a well-formed payload lies.
struct ChainPart {
  std::size_t start_at = 0;  ///< the suffix start's varint (deltas only)
  std::size_t len_at = 0;    ///< the length's varint
  std::vector<std::size_t> node_at;  ///< each node's first byte, then the end
  std::uint64_t from = 0;
  std::uint64_t len = 0;
};

std::vector<ChainPart> layout(const Bytes& payload, Pid n) {
  ByteReader r(payload);
  const auto at = [&] { return payload.size() - r.remaining(); };
  const bool delta = r.svarint().value() < 0;
  std::vector<ChainPart> parts(static_cast<std::size_t>(n));
  for (ChainPart& part : parts) {
    part.start_at = at();
    part.from = delta ? r.uvarint().value() : 0;
    part.len_at = at();
    part.len = r.uvarint().value();
    for (std::uint64_t k = 0; k < part.len; ++k) {
      part.node_at.push_back(at());
      EXPECT_TRUE(testref::read_node(r, n, nullptr));
    }
    part.node_at.push_back(at());
  }
  return parts;
}

/// `payload` with the varint at [at, end) replaced by v.
Bytes with_varint(const Bytes& payload, std::size_t at, std::size_t end,
                  std::uint64_t v) {
  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(payload).first(at));
  w.uvarint(v);
  w.raw(std::span<const std::uint8_t>(payload).subspan(end));
  return w.take();
}

/// Checks mutations of a real delta against the reference: one- and
/// seven-bit flips of every byte, every truncation, and each chain's start
/// and length moved by one.
void check_mutations(const SampleDag& dag, const Bytes& delta,
                     std::span<const std::uint32_t> from,
                     GossipLedger& ledger) {
  const std::vector<ChainPart> parts = layout(delta, dag.n());
  enum Region : char { kHeader, kHeld, kNew };
  std::vector<Region> region(delta.size(), kHeader);
  for (std::size_t q = 0; q < parts.size(); ++q) {
    const ChainPart& part = parts[q];
    for (std::size_t i = 0; i + 1 < part.node_at.size(); ++i) {
      const bool held =
          part.from + i < dag.count_of(static_cast<Pid>(q));
      std::fill(region.begin() + static_cast<std::ptrdiff_t>(part.node_at[i]),
                region.begin() + static_cast<std::ptrdiff_t>(part.node_at[i + 1]),
                held ? kHeld : kNew);
    }
  }
  for (std::size_t i = 0; i < delta.size(); ++i) {
    for (std::uint8_t mask : {0x01, 0x80}) {
      Bytes flipped = delta;
      flipped[i] ^= mask;
      EXPECT_TRUE(merges_as_reference(dag, flipped, from))
          << "byte " << i << " ^ " << int{mask};
    }
    ledger.held_flips += region[i] == kHeld;
    ledger.new_flips += region[i] == kNew;
  }
  for (std::size_t len = 0; len < delta.size(); ++len) {
    EXPECT_TRUE(merges_as_reference(
        dag, Bytes(delta.begin(), delta.begin() + static_cast<std::ptrdiff_t>(len)),
        from))
        << "truncated to " << len;
  }
  const auto moved_by_one = [](std::uint64_t v) {
    std::vector<std::uint64_t> out{v + 1};
    if (v > 0) out.push_back(v - 1);
    return out;
  };
  for (const ChainPart& part : parts) {
    for (const std::uint64_t moved : moved_by_one(part.from)) {
      EXPECT_TRUE(merges_as_reference(
          dag, with_varint(delta, part.start_at, part.len_at, moved), from))
          << "start " << part.from << " -> " << moved;
    }
    for (const std::uint64_t moved : moved_by_one(part.len)) {
      EXPECT_TRUE(merges_as_reference(
          dag, with_varint(delta, part.len_at, part.node_at.front(), moved),
          from))
          << "length " << part.len << " -> " << moved;
    }
  }
  ++ledger.mutated;
}

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
    if (in != nullptr && is_gossip(in->payload)) {
      const Bytes delta(in->payload.begin() + (framed_ ? 1 : 0),
                        in->payload.end());
      const auto sent = ledger_.in_flight.find(in->shared->raw());
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
        const bool partial = ByteReader(delta).svarint().value_or(0) < 0;
        ledger_.partial += partial;
        expected = std::move(via_delta);

        const std::vector<std::uint32_t> from =
            core_.dag().acked_frontier(in->from);
        EXPECT_TRUE(merges_as_reference(core_.dag(), delta, from))
            << "at " << core_.self();
        // Every eighth delta, from the first, up to the budget.
        if (partial && ledger_.mutated < ledger_.mutate_budget &&
            ledger_.partial % 8 == 1) {
          check_mutations(core_.dag(), delta, from, ledger_);
        }
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
    // The walk kept across steps is the linear walk on today's DAG.
    const std::vector<NodeRef>& walked = core_.walked_chain();
    if (!walked.empty()) {
      EXPECT_EQ(walked, testref::fair_chain(core_.dag(), walked.front()))
          << "at " << core_.self();
      ++ledger_.walks_checked;
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
  [[nodiscard]] bool is_gossip(ByteView payload) const {
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

/// Two-process runs with a crash hold only a few receipts.
std::size_t min_receipts(const DeltaParam& p) { return p.n == 2 ? 5 : 10; }

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
  EXPECT_GE(ledger.checked, min_receipts(GetParam()));
  EXPECT_GT(ledger.partial, 0u);
  EXPECT_GE(ledger.walks_checked, ledger.checked);
  if (GetParam().n > 2) {
    EXPECT_GT(ledger.mutated, 0u);
  }
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
                                   mixed_proposals(fp.n()), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
  EXPECT_GE(ledger.checked, min_receipts(GetParam()));
  EXPECT_GT(ledger.partial, 0u);
  EXPECT_GE(ledger.walks_checked, ledger.checked);
  if (GetParam().n > 2) {
    EXPECT_GT(ledger.mutated, 0u);
  }
}

std::vector<DeltaParam> delta_params() {
  std::vector<DeltaParam> out;
  for (std::uint64_t seed : {1ull, 2ull}) {
    out.push_back({2, 0, seed});
    out.push_back({2, 1, seed});
  }
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
  ledger.mutate_budget = 1;
  (void)simulate(fp, oracle, make, opts);
  EXPECT_GT(ledger.checked, 500u);
  EXPECT_GT(ledger.partial, 0u);
  EXPECT_GT(ledger.walks_checked, 1000u);
  EXPECT_EQ(ledger.mutated, 1u);
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
    const Incoming in{from, payload};
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

TEST(HostileDelta, MutationsMatchTheTwoPassDecoder) {
  DeltaPair pair;
  const Bytes delta = pair.delta();
  GossipLedger ledger;
  check_mutations(pair.receiver.dag(), delta,
                  pair.receiver.dag().acked_frontier(0), ledger);
  EXPECT_GT(ledger.held_flips, 0u);
  EXPECT_GT(ledger.new_flips, 0u);
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

/// A delta carrying, from the receiver's count on, chain 0's nodes with the
/// given views (empty FdValues) and nothing of chains 1 and 2.
Bytes chain0_delta(std::initializer_list<std::vector<std::uint64_t>> views) {
  ByteWriter w;
  w.svarint(-3);
  w.uvarint(2);  // chain 0: start at (0,3)
  w.uvarint(views.size());
  for (const auto& vc : views) {
    w.u8(0);
    for (std::uint64_t c : vc) w.uvarint(c);
  }
  for (int chain = 1; chain < 3; ++chain) {
    w.uvarint(0);
    w.uvarint(0);
  }
  return w.take();
}

TEST(HostileDelta, ViewEntryAbove32BitsIsDropped) {
  DeltaPair pair;
  // One node (0,3) whose vc[0] is given; (0,2)'s view is {1,1,0}.
  const auto one_node = [](std::uint64_t vc0) {
    return chain0_delta({{vc0, 1, 0}});
  };
  EXPECT_FALSE(pair.dropped(one_node(2)));
  EXPECT_TRUE(pair.dropped(one_node((std::uint64_t{1} << 32) + 1)));
}

TEST(HostileDelta, ViewBelowTheHeldPredecessorIsDropped) {
  DeltaPair pair;
  ASSERT_TRUE(std::ranges::equal(pair.receiver.dag().node(NodeRef{0, 2}).vc,
                                 std::vector<std::uint32_t>{1, 1, 0}));
  // (0,3) would drop the edge (1,1) -> (0,3) while (1,1) -> (0,2) exists.
  EXPECT_TRUE(pair.dropped(chain0_delta({{2, 0, 0}})));
}

TEST(HostileDelta, ViewBelowAnEarlierNewNodeIsDropped) {
  DeltaPair pair;
  EXPECT_FALSE(pair.dropped(chain0_delta({{2, 1, 0}, {3, 2, 0}})));
  EXPECT_TRUE(pair.dropped(chain0_delta({{2, 2, 0}, {3, 1, 0}})));
  // The rollback also undoes the nodes already appended to earlier chains.
  ByteWriter w;
  w.svarint(-3);
  w.uvarint(2);  // chain 0: (0,3), well formed
  w.uvarint(1);
  w.u8(0);
  for (std::uint64_t c : {2, 1, 0}) w.uvarint(c);
  w.uvarint(2);  // chain 1: (1,3) {2,2,0}, then (1,4) {2,1,0}
  w.uvarint(2);
  for (const auto& vc : {std::vector<std::uint64_t>{2, 2, 0}, {2, 1, 0}}) {
    w.u8(0);
    for (std::uint64_t c : vc) w.uvarint(c);
  }
  w.uvarint(0);
  w.uvarint(0);
  EXPECT_TRUE(pair.dropped(w.take()));
}

}  // namespace
}  // namespace nucon
