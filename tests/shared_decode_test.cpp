// One decode per sealed broadcast buffer (SharedBytes::decoded): the slot's
// own contract, and a differential run of the automata that decode through
// it against the same automata parsing every receipt fresh.
#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>

#include "exp/sweep.hpp"
#include "fd/impl/host.hpp"
#include "util/shared_bytes.hpp"

namespace nucon {
namespace {

int byte_sum(ByteView v) { return std::accumulate(v.begin(), v.end(), 0); }

TEST(DecodeSlot, DecodesTheViewOnceForEveryShare) {
  const SharedBytes sealed(Bytes{1, 2, 3});
  const ByteView past_channel = ByteView(sealed.get()).subspan(1);
  int calls = 0;
  const auto decode = [&calls](ByteView v) {
    ++calls;
    return byte_sum(v);
  };
  const std::vector<SharedBytes> shares(4, sealed);
  for (const SharedBytes& s : shares) {
    EXPECT_EQ(s.decoded<int>(past_channel, decode), 5);
  }
  EXPECT_EQ(sealed.decoded<int>(past_channel, decode), 5);
  EXPECT_EQ(calls, 1);
}

TEST(DecodeSlot, ASeparatelySealedEqualBufferDecodesAgain) {
  const SharedBytes a(Bytes{1, 2, 3});
  const SharedBytes b(Bytes{1, 2, 3});
  int calls = 0;
  const auto decode = [&calls](ByteView v) {
    ++calls;
    return byte_sum(v);
  };
  EXPECT_EQ(a.decoded<int>(a.get(), decode), 6);
  EXPECT_EQ(b.decoded<int>(b.get(), decode), 6);
  EXPECT_EQ(calls, 2);
}

TEST(DecodeSlot, ASecondTypeOnOneBufferThrows) {
  const SharedBytes sealed(Bytes{1, 2, 3});
  EXPECT_EQ(sealed.decoded<int>(sealed.get(), byte_sum), 6);
  EXPECT_THROW((void)sealed.decoded<std::size_t>(
                   sealed.get(), [](ByteView v) { return v.size(); }),
               std::bad_any_cast);
  EXPECT_EQ(sealed.decoded<int>(sealed.get(), byte_sum), 6);  // kept
}

TEST(DecodeSlot, TheDecodeIsFreedWithTheLastShare) {
  struct Holder {
    std::shared_ptr<int> value;
  };
  std::weak_ptr<int> watch;
  std::optional<SharedBytes> first(Bytes{7});
  std::optional<SharedBytes> second = first;
  (void)first->decoded<Holder>(first->get(), [&watch](ByteView) {
    Holder h{std::make_shared<int>(1)};
    watch = h.value;
    return h;
  });
  first.reset();
  EXPECT_FALSE(watch.expired());  // the other share still holds the buffer
  second.reset();
  EXPECT_TRUE(watch.expired());
}

/// What a differential run saw.
struct Divergence {
  std::int64_t steps = 0;
  std::int64_t shared_receipts = 0;  ///< steps handed the sealed buffer
  std::int64_t mismatches = 0;
  std::string first;  ///< where the first mismatch happened
};

/// The complete state the differential compares: save_state, or, for an
/// FdHost (which has none), its hosted automaton's.
Bytes state_of(const ConsensusAutomaton& a) {
  ByteWriter w;
  const auto* host = dynamic_cast<const FdHost*>(&a);
  EXPECT_TRUE(host != nullptr ? host->inner().save_state(w)
                              : a.save_state(w));
  return w.take();
}

/// Steps two copies of one process's automaton on every input: `plain_`
/// as delivered, `fresh_` with `shared` cleared, so each of fresh_'s
/// receipts parses its own bytes. Forwards plain_'s sends, and after every
/// step compares both copies' sends, decisions and states, up to the first
/// mismatch.
class FreshTwin final : public ConsensusAutomaton {
 public:
  FreshTwin(std::unique_ptr<ConsensusAutomaton> plain,
            std::unique_ptr<ConsensusAutomaton> fresh, Divergence& seen)
      : plain_(std::move(plain)), fresh_(std::move(fresh)), seen_(seen) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    const std::size_t first = out.size();
    plain_->step(in, d, out);
    if (seen_.mismatches > 0) return;
    std::optional<Incoming> cleared;
    if (in != nullptr) cleared = Incoming{in->from, in->payload};
    fresh_sends_.clear();
    fresh_->step(cleared ? &*cleared : nullptr, d, fresh_sends_);

    ++seen_.steps;
    if (in != nullptr && in->shared != nullptr) ++seen_.shared_receipts;
    bool same = out.size() - first == fresh_sends_.size() &&
                plain_->decision() == fresh_->decision();
    for (std::size_t i = 0; same && i < fresh_sends_.size(); ++i) {
      same = out[first + i].to == fresh_sends_[i].to &&
             out[first + i].payload == fresh_sends_[i].payload;
    }
    same = same && state_of(*plain_) == state_of(*fresh_);
    if (!same && seen_.mismatches++ == 0) {
      seen_.first = "step " + std::to_string(seen_.steps);
    }
  }

  [[nodiscard]] std::optional<Value> decision() const override {
    return plain_->decision();
  }

 private:
  std::unique_ptr<ConsensusAutomaton> plain_;
  std::unique_ptr<ConsensusAutomaton> fresh_;
  Divergence& seen_;
  std::vector<Outgoing> fresh_sends_;
};

/// Runs `pt` as run_point does, with every process twinned.
Divergence run_twinned(const exp::SweepPoint& pt,
                       ConsensusRunStats& stats) {
  const FailurePattern fp = exp::failure_pattern_of(pt);
  const ConsensusFactory inner =
      exp::consensus_factory_of(pt.algo, pt.n, pt.seed);
  const bool hosted = pt.fd == exp::FdSource::kImplemented;
  const HostedConsensus host =
      hosted ? make_hosted_consensus(inner, pt.n, HeartbeatMode::kOmega)
             : HostedConsensus{};
  exp::AlgoOracles oracle(pt.algo, fp, pt.stabilize, pt.faulty_mode,
                          pt.seed, host.board, pt.hold);
  const ConsensusFactory& make = hosted ? host.factory : inner;
  Divergence seen;
  const ConsensusFactory twinned = [&make, &seen](Pid p, Value v) {
    return std::make_unique<FreshTwin>(make(p, v), make(p, v), seen);
  };
  SchedulerOptions opts;
  opts.seed = pt.seed;
  opts.max_steps = pt.max_steps;
  opts.timing.enabled = hosted;
  stats = run_consensus(fp, oracle.top(), twinned, exp::proposals_of(pt),
                        opts);
  return seen;
}

struct DiffCase {
  const char* name;
  exp::SweepPoint pt;
  bool decides;  ///< runs to a decision within its budget
};

void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

/// One crash, at time 40: inside every run below.
exp::SweepPoint point(exp::Algo algo, Pid n, std::int64_t max_steps,
                      std::uint64_t seed) {
  exp::SweepPoint pt;
  pt.algo = algo;
  pt.n = n;
  pt.faults = 1;
  pt.crash_at = 40;
  pt.max_steps = max_steps;
  pt.seed = seed;
  return pt;
}

/// Post-GST: one quorum window spans the whole budget.
exp::SweepPoint post_gst(exp::SweepPoint pt) {
  pt.hold = pt.max_steps;
  return pt;
}

exp::SweepPoint implemented(exp::SweepPoint pt) {
  pt.fd = exp::FdSource::kImplemented;
  return pt;
}

class SharedDecode : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SharedDecode, EqualsAFreshParseAtEveryStep) {
  const exp::SweepPoint& pt = GetParam().pt;
  ASSERT_EQ(exp::failure_pattern_of(pt).faulty().size(), 1u);
  ConsensusRunStats stats;
  const Divergence seen = run_twinned(pt, stats);
  EXPECT_GT(stats.end_time, pt.crash_at);
  EXPECT_EQ(seen.mismatches, 0) << seen.first;
  EXPECT_GT(seen.shared_receipts, 0);
  EXPECT_EQ(GetParam().decides, stats.all_correct_decided);
  // The twins forward the plain run, which is run_point's.
  const ConsensusRunStats alone = exp::run_point(pt);
  EXPECT_EQ(stats.steps, alone.steps);
  EXPECT_EQ(stats.bytes_sent, alone.bytes_sent);
  EXPECT_EQ(stats.decisions, alone.decisions);
}

using exp::Algo;

INSTANTIATE_TEST_SUITE_P(
    Points, SharedDecode,
    ::testing::Values(
        DiffCase{"anuc_n3", point(Algo::kAnuc, 3, 20'000, 5), true},
        DiffCase{"anuc_n6", point(Algo::kAnuc, 6, 20'000, 6), true},
        DiffCase{"anuc_n12", point(Algo::kAnuc, 12, 2'000, 7), false},
        DiffCase{"anuc_n65_post_gst",
                 post_gst(point(Algo::kAnuc, 65, 4'000, 8)), false},
        DiffCase{"anuc_n128_post_gst",
                 post_gst(point(Algo::kAnuc, 128, 4'000, 9)), false},
        DiffCase{"stacked_n3", point(Algo::kStacked, 3, 10'000, 10), true},
        DiffCase{"stacked_n6", point(Algo::kStacked, 6, 10'000, 11), true},
        DiffCase{"hosted_anuc_n5",
                 implemented(point(Algo::kAnuc, 5, 20'000, 12)), true}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace nucon
