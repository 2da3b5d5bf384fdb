// Capstone integration matrix: every consensus algorithm in the library,
// run under its own detector stack across environments, must satisfy its
// own solving predicate — and every recorded run must be structurally
// valid and deterministically replayable. This is the "everything
// composes" test tying the simulator, the oracles, the algorithms and the
// checkers together.
#include <gtest/gtest.h>

#include <cctype>

#include "consensus_test_util.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;

// The matrix's algorithms. A parameter holds its algorithm's index in this
// list, not the exp::Algo, so the bytes gtest prints for it, and with them
// each test's ctest name, do not depend on the registry's enum order.
constexpr exp::Algo kMatrixAlgos[] = {
    exp::Algo::kMrMajority, exp::Algo::kMrSigma, exp::Algo::kCt,
    exp::Algo::kAnuc,       exp::Algo::kStacked, exp::Algo::kFromScratch,
};

struct MatrixParam {
  int algo;  // index into kMatrixAlgos
  Pid n;
  Pid faults;
  std::uint64_t seed;
};

/// The registry name as a test-name token: "mr-majority" -> "MrMajority".
std::string test_name_of(exp::Algo a) {
  std::string out;
  bool upper = true;
  for (const char c : std::string(exp::algo_name(a))) {
    if (c == '-') {
      upper = true;
      continue;
    }
    out += upper ? static_cast<char>(std::toupper(c)) : c;
    upper = false;
  }
  return out;
}

bool needs_majority(exp::Algo a) {
  return a == exp::Algo::kMrMajority || a == exp::Algo::kCt ||
         a == exp::Algo::kFromScratch;
}

class IntegrationMatrix : public testing::TestWithParam<MatrixParam> {};

TEST_P(IntegrationMatrix, SolvesItsConsensusVariant) {
  const auto [index, n, faults, seed] = GetParam();
  const exp::Algo algo = kMatrixAlgos[index];
  constexpr Time kStabilize = 120;
  const FailurePattern fp =
      testutil::sweep_pattern({n, faults, seed}, kStabilize - 20);
  ASSERT_TRUE(!needs_majority(algo) || is_majority(fp.correct(), n));

  exp::AlgoOracles stack(algo, fp, kStabilize, kAdversarial, seed);
  const ConsensusFactory make = exp::consensus_factory_of(algo, n, seed);

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 300'000;

  // Run via simulate_consensus so the recorded run is available for the
  // structural and replay checks.
  const auto proposals = mixed_proposals(n);
  SimResult sim =
      simulate_consensus(fp, stack.top(), make, proposals, opts);

  const auto decisions = decisions_of(sim.automata);
  const auto verdict = check_consensus(fp, proposals, decisions);

  EXPECT_TRUE(all_correct_decided(fp, sim.automata))
      << exp::algo_name(algo) << " under " << fp.to_string();
  EXPECT_TRUE(verdict.termination) << verdict.detail;
  EXPECT_TRUE(verdict.validity) << verdict.detail;
  EXPECT_TRUE(verdict.nonuniform_agreement) << verdict.detail;
  if (exp::expectation(algo) == exp::Expect::kUniform) {
    EXPECT_TRUE(verdict.uniform_agreement) << verdict.detail;
  }

  // Model-level invariants of the recorded execution.
  const auto violation = check_run_structure(sim.run);
  EXPECT_FALSE(violation) << *violation;

  const AutomatonFactory generic = [&make, &proposals](Pid p) {
    return make(p, proposals[static_cast<std::size_t>(p)]);
  };
  const ReplayOutcome replayed = replay(sim.run, n, generic);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(decisions_of(replayed.automata), decisions);
}

std::vector<MatrixParam> matrix() {
  std::vector<MatrixParam> out;
  for (int index = 0; index < static_cast<int>(std::size(kMatrixAlgos));
       ++index) {
    for (Pid n : {3, 5}) {
      std::vector<Pid> fault_choices = {0, static_cast<Pid>((n - 1) / 2)};
      if (!needs_majority(kMatrixAlgos[index])) {
        fault_choices.push_back(static_cast<Pid>(n - 1));
      }
      for (Pid faults : fault_choices) {
        for (std::uint64_t seed : {1ull, 2ull}) {
          out.push_back({index, n, faults, seed});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, IntegrationMatrix,
                         testing::ValuesIn(matrix()), [](const auto& info) {
                           return test_name_of(kMatrixAlgos[info.param.algo]) +
                                  "_n" + std::to_string(info.param.n) + "_f" +
                                  std::to_string(info.param.faults) + "_s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace nucon
