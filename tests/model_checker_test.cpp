// Bounded model checking of the consensus automata at n = 2: the naive
// Sigma^nu substitution's agreement violation is FOUND automatically by
// exhaustive schedule exploration, while MR-Sigma and A_nuc survive the
// same exhaustively explored space under the corresponding detector
// histories.
#include "check/model_checker.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "algo/mr_consensus.hpp"
#include "core/anuc.hpp"
#include "core/from_scratch.hpp"

namespace nucon {
namespace {

/// The n=2 partition history: each process forever trusts only itself —
/// legal for Sigma^nu when the OTHER process is faulty, and exactly the
/// history under which quorum intersection does all the work. (In the
/// explored runs nobody crashes, so any disagreement is a bona fide
/// nonuniform agreement violation.)
FdValue partition_fd(Pid p, int /*own_step*/) {
  FdValue v = FdValue::of_quorum(ProcessSet::single(p));
  v.set_leader(p);
  return v;
}

/// A legal Sigma history for n=2: both processes always output {0, 1}
/// (all quorums intersect), leaders split as in the partition history so
/// the leader mechanism is equally adversarial.
FdValue sigma_fd(Pid p, int /*own_step*/) {
  FdValue v = FdValue::of_quorum(ProcessSet{0, 1});
  v.set_leader(p);
  return v;
}

TEST(ModelChecker, FindsNaiveSigmaNuViolationExhaustively) {
  McOptions opts;
  opts.n = 2;
  opts.make = make_mr_fd_quorum(2);
  opts.proposals = {0, 1};
  opts.fd = partition_fd;
  opts.max_depth = 16;
  opts.max_states = 2'000'000;

  const McResult result = model_check_consensus(opts);
  EXPECT_TRUE(result.violation_found)
      << "explored " << result.states_explored << " states";
  EXPECT_NE(result.violation.find("decided 0 vs 1"), std::string::npos)
      << result.violation;
  // The witness is short: each process can decide alone on its own
  // quorum within a handful of steps.
  EXPECT_LE(result.witness.size(), 16u);
  EXPECT_GE(result.witness.size(), 4u);
}

TEST(ModelChecker, MrSigmaSafeOverTheSameSpace) {
  McOptions opts;
  opts.n = 2;
  opts.make = make_mr_fd_quorum(2);
  opts.proposals = {0, 1};
  opts.fd = sigma_fd;
  opts.max_depth = 14;
  opts.max_states = 4'000'000;

  const McResult result = model_check_consensus(opts);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted)
      << "state budget hit after " << result.states_explored;
  EXPECT_GT(result.states_explored, 1000u);
}

TEST(ModelChecker, AnucSurvivesThePartitionHistory) {
  // A_nuc consuming the partition history (a legal Sigma^nu+ history when
  // the other process is faulty — self-inclusive, faulty-only quorums):
  // the distrust machinery must prevent any disagreement in every
  // explored schedule. A_nuc's save_state is a complete encoding so dedup
  // is exact, but the depth-14 space exceeds the state budget here, so
  // this is a broad search rather than a certification; the assertion is
  // that no violation exists in what was explored. (The exhaustive A_nuc
  // certificate lives in model_checker_parallel_test.cpp at n=3.)
  McOptions opts;
  opts.n = 2;
  opts.make = make_anuc(2);
  opts.proposals = {0, 1};
  opts.fd = partition_fd;
  opts.max_depth = 14;
  opts.max_states = 300'000;

  const McResult result = model_check_consensus(opts);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_GT(result.states_explored, 10'000u);
}

TEST(ModelChecker, DedupActuallyPrunes) {
  McOptions opts;
  opts.n = 2;
  opts.make = make_mr_fd_quorum(2);
  opts.proposals = {0, 0};
  opts.fd = sigma_fd;
  opts.max_depth = 10;
  opts.max_states = 2'000'000;

  const McResult result = model_check_consensus(opts);
  EXPECT_GT(result.states_deduped, 0u);
  EXPECT_TRUE(result.exhausted);
}

TEST(ModelChecker, UnanimousProposalsNeverDisagreeAnywhere) {
  // Validity + agreement over the whole space: with both proposing 1 and
  // the partition history, even the naive algorithm can only decide 1.
  McOptions opts;
  opts.n = 2;
  opts.make = make_mr_fd_quorum(2);
  opts.proposals = {1, 1};
  opts.fd = partition_fd;
  opts.max_depth = 14;
  opts.max_states = 2'000'000;

  const McResult result = model_check_consensus(opts);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
}

TEST(ModelChecker, RespectsStateBudget) {
  McOptions opts;
  opts.n = 2;
  opts.make = make_anuc(2);
  opts.proposals = {0, 1};
  opts.fd = sigma_fd;
  opts.max_depth = 30;
  opts.max_states = 500;

  const McResult result = model_check_consensus(opts);
  EXPECT_FALSE(result.exhausted);
  EXPECT_LE(result.states_explored, 501u);
}

/// A consensus automaton without save_state: it decides its proposal on
/// its first step.
class Stateless final : public ConsensusAutomaton {
 public:
  explicit Stateless(Value v) : v_(v) {}
  void step(const Incoming*, const FdValue&, std::vector<Outgoing>&) override {
    decided_ = v_;
  }
  [[nodiscard]] std::optional<Value> decision() const override {
    return decided_;
  }

 private:
  Value v_;
  std::optional<Value> decided_;
};

// A search deduplicated on anything less than the complete state could
// prune configurations that differ; the engine refuses such automata.
TEST(ModelChecker, RefusesAutomataWithoutSaveState) {
  McOptions opts;
  opts.n = 2;
  opts.make = [](Pid, Value v) { return std::make_unique<Stateless>(v); };
  opts.proposals = {0, 1};
  opts.fd = [](Pid, int) { return FdValue{}; };
  opts.max_depth = 4;
  try {
    (void)model_check_consensus(opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("process 0"), std::string::npos)
        << e.what();
  }
}

/// Counts its steps, broadcasts after each, and throws on its third.
class Tripwire final : public ConsensusAutomaton {
 public:
  void step(const Incoming*, const FdValue&,
            std::vector<Outgoing>& out) override {
    if (++steps_ == 3) throw std::runtime_error("tripwire");
    out.push_back({0, Bytes{steps_}});
    out.push_back({1, Bytes{steps_}});
  }
  [[nodiscard]] bool save_state(ByteWriter& w) const override {
    w.u8(steps_);
    return true;
  }
  [[nodiscard]] bool restore_state(ByteReader& r) override {
    const auto steps = r.u8();
    if (!steps) return false;
    steps_ = *steps;
    return true;
  }
  [[nodiscard]] std::optional<Value> decision() const override {
    return std::nullopt;
  }

 private:
  std::uint8_t steps_ = 0;
};

// A step that throws ends the search with that exception, and a parallel
// search first waits for the chunks still in flight, which read the
// frontier it is about to free.
TEST(ModelChecker, AThrowingStepEndsTheSearchWithItsException) {
  McOptions opts;
  opts.n = 2;
  opts.make = [](Pid, Value) { return std::make_unique<Tripwire>(); };
  opts.proposals = {0, 1};
  opts.fd = [](Pid, int) { return FdValue{}; };
  opts.max_depth = 6;
  for (const unsigned threads : {1u, 4u}) {
    opts.threads = threads;
    EXPECT_THROW((void)model_check_consensus(opts), std::runtime_error)
        << "threads=" << threads;
  }
}

// The no-oracle stack's complete state spans its election, Sigma and MR
// components, so the engine searches it like any registry automaton.
TEST(ModelChecker, ExhaustsFromScratchViolationFree) {
  McOptions opts;
  opts.n = 3;
  opts.make = make_from_scratch(3, 1);
  opts.proposals = {0, 1, 1};
  opts.fd = [](Pid, int) { return FdValue{}; };
  opts.max_depth = 6;
  const McResult result = model_check_consensus(opts);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_GT(result.states_deduped, 0u);
}

}  // namespace
}  // namespace nucon
