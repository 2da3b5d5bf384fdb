// T_{D -> Sigma^nu} (paper Fig. 2, Theorems 5.4 and 5.8): extracting
// Sigma^nu from detectors that solve nonuniform consensus, and Sigma from
// detectors that solve uniform consensus.
#include "core/extract_sigma_nu.hpp"

#include <gtest/gtest.h>

#include "algo/ct_consensus.hpp"
#include "algo/mr_consensus.hpp"
#include "consensus_test_util.hpp"
#include "core/anuc.hpp"
#include "fd/history.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;

constexpr Time kStabilize = 40;

struct ExtractOutcome {
  RecordedHistory emulated;
  std::vector<std::int64_t> outputs_per_process;
};

ExtractOutcome run_extract(const FailurePattern& fp, Oracle& oracle,
                           const ConsensusFactory& algorithm,
                           std::uint64_t seed, std::int64_t steps) {
  ExtractOptions eo;
  eo.algorithm = algorithm;
  eo.n = fp.n();
  eo.check_every = 4;   // simulate every 4th step: same semantics, cheaper
  eo.max_chain = 600;

  ExtractOutcome outcome;
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  opts = with_emulation_recording(std::move(opts), outcome.emulated);

  const SimResult sim = simulate(fp, oracle, make_extract_sigma_nu(eo), opts);
  for (Pid p = 0; p < fp.n(); ++p) {
    outcome.outputs_per_process.push_back(
        static_cast<const ExtractSigmaNu*>(
            sim.automata[static_cast<std::size_t>(p)].get())
            ->outputs_produced());
  }
  return outcome;
}

TEST(Extract, FromAnucOracleYieldsSigmaNu) {
  // D = (Omega, Sigma^nu+) with adversarial faulty modules; A = A_nuc.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FailurePattern fp(3);
    if (seed != 1) fp.set_crash(2, 25);
    exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, kStabilize, kAdversarial,
                            seed);

    const ExtractOutcome outcome =
        run_extract(fp, oracle.top(), make_anuc(3), seed, 1400);
    ASSERT_FALSE(outcome.emulated.empty());
    const auto result = check_sigma_nu(outcome.emulated, fp);
    EXPECT_TRUE(result.ok) << result.detail << " seed " << seed;
  }
}

TEST(Extract, ProducesQuorumsAtCorrectProcesses) {
  FailurePattern fp(3);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, kStabilize, kAdversarial, 7);
  const ExtractOutcome outcome =
      run_extract(fp, oracle.top(), make_anuc(3), 7, 1400);
  for (Pid p : fp.correct()) {
    EXPECT_GT(outcome.outputs_per_process[static_cast<std::size_t>(p)], 0)
        << "process " << p << " never emitted a quorum";
  }
}

TEST(Extract, FromUniformAlgorithmYieldsSigma) {
  // Theorem 5.8: with A solving UNIFORM consensus (MR with Sigma), the
  // same transformation emits a Sigma history — full intersection.
  for (std::uint64_t seed : {1ull, 2ull}) {
    FailurePattern fp(3);
    if (seed == 2) fp.set_crash(0, 25);
    exp::AlgoOracles oracle(exp::Algo::kMrSigma, fp, kStabilize, kAdversarial,
                            seed);

    const ExtractOutcome outcome =
        run_extract(fp, oracle.top(), make_mr_fd_quorum(3), seed, 1400);
    ASSERT_FALSE(outcome.emulated.empty());
    const auto result = check_sigma(outcome.emulated, fp);
    EXPECT_TRUE(result.ok) << result.detail << " seed " << seed;
  }
}

TEST(Extract, FromEvtStrongAndCtYieldsSigmaNu) {
  // D = <>S, A = Chandra-Toueg: a detector with a completely different
  // range still reduces to Sigma^nu (majority environment).
  FailurePattern fp(3);
  exp::AlgoOracles oracle(exp::Algo::kCt, fp, kStabilize, kAdversarial, 11);
  const ExtractOutcome outcome =
      run_extract(fp, oracle.top(), make_ct(3), 11, 1600);
  ASSERT_FALSE(outcome.emulated.empty());
  const auto result = check_sigma_nu(outcome.emulated, fp);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Extract, EmittedQuorumsComeFromDecidingSchedules) {
  // Structural sanity: every emitted quorum is nonempty and contains the
  // emitting process (it decides in both simulated schedules, so it
  // participates in both).
  FailurePattern fp(4);
  fp.set_crash(3, 25);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, kStabilize, kAdversarial, 13);
  const ExtractOutcome outcome =
      run_extract(fp, oracle.top(), make_anuc(4), 13, 2000);
  for (const Sample& s : outcome.emulated.samples()) {
    EXPECT_FALSE(s.value.quorum().empty());
    // Initial Pi outputs also satisfy this.
    EXPECT_TRUE(s.value.quorum().contains(s.p));
  }
}

TEST(Extract, InitialOutputIsPi) {
  ExtractOptions eo;
  eo.algorithm = make_anuc(4);
  eo.n = 4;
  ExtractSigmaNu a(1, eo);
  EXPECT_EQ(a.emulated_output().quorum(), ProcessSet::full(4));
}

}  // namespace
}  // namespace nucon
