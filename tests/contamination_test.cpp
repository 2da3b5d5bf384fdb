// The §6.3 contamination counterexample, mechanized: naively substituting
// Sigma^nu quorums into Mostéfaoui-Raynal VIOLATES nonuniform agreement,
// while A_nuc under the same adversarial oracle family never does.
#include "algo/naive_sigma_nu.hpp"

#include <gtest/gtest.h>

#include "algo/mr_consensus.hpp"
#include "core/anuc.hpp"
#include "fd/scripted.hpp"
#include "sim/scheduler.hpp"

namespace nucon {
namespace {

TEST(Contamination, NaiveAlgorithmViolatesNonuniformAgreement) {
  ContaminationSetup setup;
  const ContaminationResult result = find_contamination(setup, 400);
  EXPECT_TRUE(result.found)
      << "no contamination found in " << result.runs_tried << " runs";
  EXPECT_FALSE(result.stats.verdict.nonuniform_agreement);
  // The violating run still satisfies validity: contamination spreads a
  // proposed-but-stale estimate, never an invented value.
  EXPECT_TRUE(result.stats.verdict.validity);
}

TEST(Contamination, UniformViolationsAreCommon) {
  // Even before correct processes disagree, the faulty process routinely
  // decides alone on its disjoint quorum: uniform agreement breaks often.
  ContaminationSetup setup;
  const ContaminationResult result = find_contamination(setup, 100);
  EXPECT_GT(result.uniform_violations + (result.found ? 1 : 0), 0);
}

TEST(Contamination, AnucIsImmuneUnderTheSameAdversary) {
  ContaminationSetup setup;
  const int violations = count_nonuniform_violations(
      setup, make_anuc(setup.n), 150, /*use_sigma_nu_plus=*/true);
  EXPECT_EQ(violations, 0);
}

TEST(Contamination, BenignSigmaWouldNotContaminate) {
  // Control: the same naive algorithm with a real Sigma history (kernel
  // strategy — all quorums intersect) keeps even uniform agreement. The
  // defect is the detector substitution, not the algorithm skeleton.
  ContaminationSetup setup;
  int nonuniform = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FailurePattern fp(setup.n);
    fp.set_crash(setup.faulty, setup.crash_at);
    // A Sigma-style scripted oracle: everyone's quorum is {kernel} where
    // kernel is correct, and leadership stabilizes like the real setup.
    const Pid kernel = fp.correct().min();
    ScriptedOracle oracle([&fp, kernel, &setup](Pid p, Time t) {
      FdValue v = FdValue::of_quorum(ProcessSet::single(kernel));
      v.set_leader(t >= setup.omega_stabilize_at
                       ? kernel
                       : static_cast<Pid>((t / 3 + p) % fp.n()));
      return v;
    });
    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = setup.max_steps;
    const auto stats = run_consensus(fp, oracle, make_mr_fd_quorum(setup.n),
                                     mixed_proposals(setup.n), opts);
    nonuniform += !stats.verdict.nonuniform_agreement;
    EXPECT_TRUE(stats.verdict.uniform_agreement) << "seed " << seed;
  }
  EXPECT_EQ(nonuniform, 0);
}

TEST(Contamination, LargerSystemAlsoContaminates) {
  ContaminationSetup setup;
  setup.n = 5;
  setup.faulty = 4;
  const ContaminationResult result = find_contamination(setup, 400);
  EXPECT_TRUE(result.found)
      << "no contamination found in " << result.runs_tried << " runs";
}

TEST(Contamination, ViolatingRunIsReproducible) {
  ContaminationSetup setup;
  const ContaminationResult first = find_contamination(setup, 400);
  ASSERT_TRUE(first.found);
  // Re-running from the violating seed reproduces the violation.
  const ContaminationResult again =
      find_contamination(setup, 1, first.seed);
  EXPECT_TRUE(again.found);
  EXPECT_EQ(again.seed, first.seed);
}

}  // namespace
}  // namespace nucon
