// Robustness: every automaton must tolerate arbitrary bytes on the wire
// (malformed, truncated, empty payloads, random senders) and cross-talk
// from other protocols, without crashing or corrupting its state machine.
// Decoders in this library return nullopt instead of throwing, and every
// on_message handler drops what it cannot parse; these tests exercise that
// discipline for every protocol in the repository.
#include <gtest/gtest.h>

#include "algo/ct_consensus.hpp"
#include "algo/harness.hpp"
#include "algo/mr_consensus.hpp"
#include "core/anuc.hpp"
#include "core/extract_sigma_nu.hpp"
#include "core/sigma_from_majority.hpp"
#include "core/sigma_nu_to_plus.hpp"
#include "core/stacked_nuc.hpp"
#include "dag/dag_builder.hpp"
#include "exp/sweep.hpp"
#include "fuzz/mutator.hpp"
#include "reg/abd.hpp"
#include "util/rng.hpp"

namespace nucon {
namespace {

constexpr Pid kN = 4;
/// Payload length ceiling, INCLUSIVE: the ad-hoc `rng.below(40)` loop this
/// file used before the fuzz subsystem landed could never produce a
/// payload of 40+ bytes, so the boundary length went untested.
constexpr std::size_t kMaxPayload = 40;

FdValue rich_fd_value() {
  FdValue v = FdValue::of_leader(0);
  v.set_quorum(ProcessSet{0, 1});
  v.set_suspects(ProcessSet{3});
  return v;
}

/// Feeds `rounds` random messages (and lambda steps) into the automaton.
/// Payload generation reuses the fuzz subsystem's mutator, whose length
/// distribution includes the boundary.
void fuzz(Automaton& a, std::uint64_t seed, int rounds = 600) {
  fuzz::Mutator mut(seed);
  std::vector<Outgoing> out;
  const FdValue d = rich_fd_value();
  for (int i = 0; i < rounds; ++i) {
    out.clear();
    if (mut.rng().chance(3, 4)) {
      const Bytes payload = mut.random_payload(kMaxPayload);
      const Incoming in{static_cast<Pid>(mut.rng().below(kN)), payload};
      a.step(&in, d, out);
    } else {
      a.step(nullptr, d, out);
    }
  }
}

using NamedFactory = std::pair<const char*, AutomatonFactory>;

std::vector<NamedFactory> all_factories() {
  const ConsensusFactory anuc = make_anuc(kN);
  const ConsensusFactory mr = make_mr_fd_quorum(kN);
  const ConsensusFactory mrm = make_mr_majority(kN);
  const ConsensusFactory ct = make_ct(kN);
  const ConsensusFactory stacked = make_stacked_nuc(kN);
  ExtractOptions eo;
  eo.algorithm = anuc;
  eo.n = kN;
  eo.check_every = 64;  // keep the fuzz loop fast
  std::vector<std::vector<RegOp>> workloads(kN);
  workloads[0] = {{RegOp::Kind::kWrite, 1}, {RegOp::Kind::kRead, 0}};

  return {
      {"anuc", [anuc](Pid p) { return anuc(p, 0); }},
      {"mr_fd_quorum", [mr](Pid p) { return mr(p, 0); }},
      {"mr_majority", [mrm](Pid p) { return mrm(p, 0); }},
      {"ct", [ct](Pid p) { return ct(p, 0); }},
      {"stacked_nuc", [stacked](Pid p) { return stacked(p, 0); }},
      {"adag", make_adag(kN)},
      {"sigma_nu_to_plus", make_sigma_nu_to_plus(kN)},
      {"extract_sigma_nu", make_extract_sigma_nu(eo)},
      {"sigma_from_majority", make_sigma_from_majority(kN, 1)},
      {"abd_register", make_abd(kN, workloads)},
  };
}

TEST(Fuzz, RandomBytesNeverCrashAnyAutomaton) {
  for (const auto& [name, factory] : all_factories()) {
    SCOPED_TRACE(name);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto automaton = factory(0);
      ASSERT_NO_THROW(fuzz(*automaton, seed)) << name;
    }
  }
}

TEST(Fuzz, EmptyAndTinyPayloads) {
  for (const auto& [name, factory] : all_factories()) {
    SCOPED_TRACE(name);
    const auto automaton = factory(1);
    std::vector<Outgoing> out;
    const FdValue d = rich_fd_value();
    const Bytes empty;
    const Bytes one = {0x00};
    const Bytes ff = {0xFF};
    for (const Bytes* payload : {&empty, &one, &ff}) {
      const Incoming in{2, *payload};
      ASSERT_NO_THROW(automaton->step(&in, d, out)) << name;
    }
  }
}

TEST(Fuzz, PayloadLengthBoundaries) {
  // The mutator's length distribution is inclusive of the maximum, and
  // every automaton tolerates payloads at and just past the old 40-byte
  // ceiling (oversized fields, truncation points mid-varint, etc).
  fuzz::Mutator mut(1234);
  bool saw_max = false;
  bool saw_empty = false;
  for (int i = 0; i < 2000; ++i) {
    const Bytes p = mut.random_payload(kMaxPayload);
    ASSERT_LE(p.size(), kMaxPayload);
    saw_max = saw_max || p.size() == kMaxPayload;
    saw_empty = saw_empty || p.empty();
  }
  EXPECT_TRUE(saw_max) << "boundary length never generated";
  EXPECT_TRUE(saw_empty);

  const FdValue d = rich_fd_value();
  for (const auto& [name, factory] : all_factories()) {
    SCOPED_TRACE(name);
    const auto automaton = factory(1);
    std::vector<Outgoing> out;
    Rng rng(99);
    for (const std::size_t len : {std::size_t{39}, std::size_t{40},
                                  std::size_t{41}, std::size_t{128}}) {
      Bytes payload(len);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
      const Incoming in{2, payload};
      ASSERT_NO_THROW(automaton->step(&in, d, out)) << name << " len=" << len;
    }
  }
}

TEST(Fuzz, ReframedCrossTalkIsTolerated) {
  // Multiplexer framing (reframe_sends) wraps a component's payload in a
  // channel header. Deliver every protocol's messages REFRAMED under
  // arbitrary channel bytes to every other protocol: a multiplexing
  // automaton must reject garbage inside a well-formed frame, and a
  // non-multiplexing automaton must reject the frame itself.
  const auto factories = all_factories();
  const FdValue d = rich_fd_value();

  std::vector<Outgoing> harvested;
  for (const auto& [name, factory] : factories) {
    const auto a = factory(0);
    for (int i = 0; i < 8; ++i) a->step(nullptr, d, harvested);
  }
  ASSERT_FALSE(harvested.empty());

  for (const std::uint8_t channel : {0x00, 0x01, 0x02, 0xFF}) {
    std::vector<Outgoing> reframed;
    ByteWriter scratch;
    std::vector<Outgoing> copy = harvested;
    reframe_sends(copy, scratch,
                  [channel](ByteWriter& w, const Bytes& payload) {
                    w.u8(channel);
                    w.raw(payload);
                  },
                  reframed);
    ASSERT_EQ(reframed.size(), harvested.size());

    for (const auto& [name, factory] : factories) {
      SCOPED_TRACE(name);
      const auto a = factory(1);
      std::vector<Outgoing> out;
      for (const Outgoing& o : reframed) {
        const Bytes& payload = o.payload.get();
        ASSERT_EQ(payload.front(), channel);  // framing really happened
        const Incoming in{0, payload};
        ASSERT_NO_THROW(a->step(&in, d, out)) << name;
      }
    }
  }
}

TEST(Fuzz, CrossProtocolTrafficIsTolerated) {
  // Deliver every protocol's genuine messages to every OTHER protocol.
  const auto factories = all_factories();
  const FdValue d = rich_fd_value();

  // Harvest real messages from each protocol by stepping it a few times.
  std::vector<Bytes> harvested;
  for (const auto& [name, factory] : factories) {
    const auto a = factory(0);
    std::vector<Outgoing> out;
    for (int i = 0; i < 8; ++i) a->step(nullptr, d, out);
    for (const Outgoing& o : out) harvested.push_back(o.payload.get());
  }
  ASSERT_FALSE(harvested.empty());

  for (const auto& [name, factory] : factories) {
    SCOPED_TRACE(name);
    const auto a = factory(1);
    std::vector<Outgoing> out;
    for (const Bytes& payload : harvested) {
      const Incoming in{0, payload};
      ASSERT_NO_THROW(a->step(&in, d, out)) << name;
    }
  }
}

TEST(Fuzz, ConsensusSafetySurvivesGarbageInjectedMidRun) {
  // A run of A_nuc where every automaton also receives garbage messages
  // interleaved with the real protocol: decisions must still satisfy
  // nonuniform consensus (the garbage is unparseable, hence ignored).
  class GarbageInjector final : public ConsensusAutomaton {
   public:
    GarbageInjector(std::unique_ptr<ConsensusAutomaton> inner, Pid n,
                    std::uint64_t seed)
        : inner_(std::move(inner)), n_(n), mut_(seed) {}

    void step(const Incoming* in, const FdValue& d,
              std::vector<Outgoing>& out) override {
      inner_->step(in, d, out);
      if (mut_.rng().chance(1, 4)) {
        out.push_back({static_cast<Pid>(mut_.rng().below(n_)),
                       mut_.random_payload(kMaxPayload)});
      }
    }
    [[nodiscard]] std::optional<Value> decision() const override {
      return inner_->decision();
    }

   private:
    std::unique_ptr<ConsensusAutomaton> inner_;
    Pid n_;
    fuzz::Mutator mut_;
  };

  FailurePattern fp(kN);
  fp.set_crash(3, 60);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 100,
                          FaultyQuorumBehavior::kAdversarialDisjoint, 77);

  const ConsensusFactory inner = make_anuc(kN);
  const ConsensusFactory noisy = [inner](Pid p, Value proposal) {
    return std::make_unique<GarbageInjector>(
        inner(p, proposal), kN, 0xF00D + static_cast<std::uint64_t>(p));
  };

  SchedulerOptions opts;
  opts.seed = 77;
  opts.max_steps = 120'000;
  const ConsensusRunStats stats =
      run_consensus(fp, oracle.top(), noisy, {0, 1, 0, 1}, opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

}  // namespace
}  // namespace nucon
