// The one state contract (Automaton::save_state): an automaton restored
// from another's save_state behaves like it. Every registry algorithm runs
// with each process twinned; before every step the twin is restored from
// the original's save_state, then both step on the same input and
// detector value and must send, decide and save the same.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "exp/sweep.hpp"

namespace nucon {
namespace {

/// What a twinned run saw.
struct Divergence {
  std::int64_t steps = 0;
  std::int64_t receipts = 0;  ///< steps that received a message
  std::int64_t mismatches = 0;
  std::string first;  ///< where the first mismatch happened
};

Bytes state_of(const Automaton& a) {
  ByteWriter w;
  EXPECT_TRUE(a.save_state(w));
  return w.take();
}

/// Steps `original_` as delivered and forwards its sends; before each step
/// restores `twin_` from original_'s save_state and steps it on the same
/// input, then compares both automata's sends, decisions and states, up to
/// the first mismatch.
class RestoredTwin final : public ConsensusAutomaton {
 public:
  RestoredTwin(std::unique_ptr<ConsensusAutomaton> original,
               std::unique_ptr<ConsensusAutomaton> twin, Divergence& seen)
      : original_(std::move(original)), twin_(std::move(twin)), seen_(seen) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    const Bytes before = state_of(*original_);
    const std::size_t first = out.size();
    original_->step(in, d, out);
    if (seen_.mismatches > 0) return;
    twin_sends_.clear();
    bool same = twin_->restore(before);
    if (same) twin_->step(in, d, twin_sends_);

    ++seen_.steps;
    if (in != nullptr) ++seen_.receipts;
    same = same && out.size() - first == twin_sends_.size() &&
           original_->decision() == twin_->decision();
    for (std::size_t i = 0; same && i < twin_sends_.size(); ++i) {
      same = out[first + i].to == twin_sends_[i].to &&
             out[first + i].payload == twin_sends_[i].payload;
    }
    same = same && state_of(*original_) == state_of(*twin_);
    if (!same && seen_.mismatches++ == 0) {
      seen_.first = "step " + std::to_string(seen_.steps);
    }
  }

  [[nodiscard]] std::optional<Value> decision() const override {
    return original_->decision();
  }

 private:
  std::unique_ptr<ConsensusAutomaton> original_;
  std::unique_ptr<ConsensusAutomaton> twin_;
  Divergence& seen_;
  std::vector<Outgoing> twin_sends_;
};

struct ContractCase {
  exp::Algo algo;
  Pid n;
};

void PrintTo(const ContractCase& c, std::ostream* os) {
  *os << exp::algo_name(c.algo) << " n=" << c.n;
}

class StateContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(StateContract, RestoredTwinStepsLikeTheOriginal) {
  exp::SweepPoint pt;
  pt.algo = GetParam().algo;
  pt.n = GetParam().n;
  pt.faults = 1;
  pt.crash_at = 40;
  pt.max_steps = 400;
  pt.seed = 3;
  const FailurePattern fp = exp::failure_pattern_of(pt);
  ASSERT_EQ(fp.faulty().size(), 1u);
  const ConsensusFactory make =
      exp::consensus_factory_of(pt.algo, pt.n, pt.seed);
  exp::AlgoOracles oracle(pt.algo, fp, pt.stabilize, pt.faulty_mode, pt.seed);
  Divergence seen;
  const ConsensusFactory twinned = [&make, &seen](Pid p, Value v) {
    return std::make_unique<RestoredTwin>(make(p, v), make(p, v), seen);
  };
  SchedulerOptions opts;
  opts.seed = pt.seed;
  opts.max_steps = pt.max_steps;
  opts.stop_when = [](const std::vector<std::unique_ptr<Automaton>>&) {
    return false;  // the whole budget, decided or not
  };
  const ConsensusRunStats stats = run_consensus(
      fp, oracle.top(), twinned, exp::proposals_of(pt), opts);

  EXPECT_EQ(seen.mismatches, 0) << seen.first;
  EXPECT_EQ(seen.steps, pt.max_steps);
  EXPECT_GT(seen.receipts, 0);
  EXPECT_GT(stats.end_time, pt.crash_at);
}

std::vector<ContractCase> contract_cases() {
  std::vector<ContractCase> out;
  for (const exp::Algo algo :
       {exp::Algo::kAnuc, exp::Algo::kStacked, exp::Algo::kMrMajority,
        exp::Algo::kMrSigma, exp::Algo::kNaive, exp::Algo::kCt,
        exp::Algo::kBenOr, exp::Algo::kFromScratch}) {
    for (const Pid n : {3, 4}) out.push_back({algo, n});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, StateContract, ::testing::ValuesIn(contract_cases()),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      std::string name = exp::algo_name(info.param.algo);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(info.param.n);
    });

}  // namespace
}  // namespace nucon
