// Property sweep: every oracle's generated history must lie in its
// detector class, across system sizes, fault counts, behaviors and seeds;
// and every Sigma-family oracle's window memo must answer exactly as the
// stateless draw does.
#include <gtest/gtest.h>

#include "fd/classic.hpp"
#include "fd/composed.hpp"
#include "fd/history.hpp"
#include "fd/omega.hpp"
#include "fd/sigma.hpp"
#include "fd/sigma_nu.hpp"
#include "oracle_memo_util.hpp"

namespace nucon {
namespace {

struct SweepParam {
  Pid n;
  Pid faults;
  std::uint64_t seed;
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "n" << p.n << "_f" << p.faults << "_s" << p.seed;
}

class OracleSweep : public testing::TestWithParam<SweepParam> {
 protected:
  static constexpr Time kStabilize = 40;
  static constexpr Time kHorizon = 120;

  FailurePattern pattern() const {
    const auto [n, faults, seed] = GetParam();
    Rng rng(seed * 1000003);
    return Environment{n, static_cast<Pid>(n - 1)}.sample(rng, faults,
                                                          kStabilize - 1);
  }

  /// Samples H(p, t) for every alive process at every tick, like a run in
  /// which everyone steps each tick.
  RecordedHistory sample_all(const FailurePattern& fp, Oracle& oracle) const {
    RecordedHistory h;
    for (Time t = 1; t <= kHorizon; ++t) {
      for (Pid p = 0; p < fp.n(); ++p) {
        if (fp.alive_at(p, t)) h.add(p, t, oracle.value(p, t));
      }
    }
    return h;
  }
};

TEST_P(OracleSweep, OmegaHistoryIsInOmega) {
  const FailurePattern fp = pattern();
  OmegaOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  OmegaOracle oracle(fp, opts);
  const auto result = check_omega(sample_all(fp, oracle), fp);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_P(OracleSweep, SigmaKernelHistoryIsInSigma) {
  const FailurePattern fp = pattern();
  SigmaOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  opts.strategy = SigmaStrategy::kKernel;
  SigmaOracle oracle(fp, opts);
  const auto h = sample_all(fp, oracle);
  const auto result = check_sigma(h, fp);
  EXPECT_TRUE(result.ok) << result.detail;
  // Sigma histories are a fortiori Sigma^nu histories.
  EXPECT_TRUE(check_sigma_nu(h, fp).ok);
}

TEST_P(OracleSweep, SigmaMajorityHistoryIsInSigma) {
  const FailurePattern fp = pattern();
  if (!is_majority(fp.correct(), fp.n())) GTEST_SKIP();
  SigmaOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  opts.strategy = SigmaStrategy::kMajority;
  SigmaOracle oracle(fp, opts);
  const auto result = check_sigma(sample_all(fp, oracle), fp);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_P(OracleSweep, SigmaNuHistoryIsInSigmaNuForAllBehaviors) {
  const FailurePattern fp = pattern();
  for (const auto behavior :
       {FaultyQuorumBehavior::kBenign, FaultyQuorumBehavior::kNoise,
        FaultyQuorumBehavior::kAdversarialDisjoint}) {
    SigmaNuOptions opts;
    opts.stabilize_at = kStabilize;
    opts.seed = GetParam().seed;
    opts.faulty = behavior;
    SigmaNuOracle oracle(fp, opts);
    const auto result = check_sigma_nu(sample_all(fp, oracle), fp);
    EXPECT_TRUE(result.ok) << result.detail;
  }
}

TEST_P(OracleSweep, AdversarialSigmaNuIsNotSigmaWhenFaultsExist) {
  const FailurePattern fp = pattern();
  // The violation needs at least one faulty process that lives long enough
  // to take a sample.
  bool faulty_sampled = false;
  for (Pid p : fp.faulty()) faulty_sampled |= fp.crash_time(p) >= 2;
  if (!faulty_sampled) GTEST_SKIP();
  SigmaNuOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  opts.faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  SigmaNuOracle oracle(fp, opts);
  // Faulty-only quorums after correct stabilization are disjoint from
  // correct quorums: the history must fail Sigma's uniform intersection.
  EXPECT_FALSE(check_sigma(sample_all(fp, oracle), fp).ok);
}

TEST_P(OracleSweep, SigmaNuPlusHistoryIsInSigmaNuPlusForAllBehaviors) {
  const FailurePattern fp = pattern();
  for (const auto behavior :
       {FaultyQuorumBehavior::kBenign, FaultyQuorumBehavior::kNoise,
        FaultyQuorumBehavior::kAdversarialDisjoint}) {
    SigmaNuPlusOptions opts;
    opts.stabilize_at = kStabilize;
    opts.seed = GetParam().seed;
    opts.faulty = behavior;
    SigmaNuPlusOracle oracle(fp, opts);
    const auto result = check_sigma_nu_plus(sample_all(fp, oracle), fp);
    EXPECT_TRUE(result.ok) << result.detail;
  }
}

TEST_P(OracleSweep, PerfectHistoryIsInP) {
  const FailurePattern fp = pattern();
  PerfectOracle oracle(fp);
  const auto h = sample_all(fp, oracle);
  const auto result = check_perfect(h, fp);
  EXPECT_TRUE(result.ok) << result.detail;
  // P histories satisfy every weaker suspect-list class.
  EXPECT_TRUE(check_evt_perfect(h, fp).ok);
  EXPECT_TRUE(check_evt_strong(h, fp).ok);
}

TEST_P(OracleSweep, EvtPerfectHistoryIsInEvtP) {
  const FailurePattern fp = pattern();
  SuspectsOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  EvtPerfectOracle oracle(fp, opts);
  const auto result = check_evt_perfect(sample_all(fp, oracle), fp);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_P(OracleSweep, StrongHistoryIsInS) {
  const FailurePattern fp = pattern();
  SuspectsOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  StrongOracle oracle(fp, opts);
  const auto h = sample_all(fp, oracle);
  const auto result = check_strong(h, fp);
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_TRUE(check_evt_strong(h, fp).ok);
}

TEST_P(OracleSweep, EvtStrongHistoryIsInEvtS) {
  const FailurePattern fp = pattern();
  SuspectsOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  EvtStrongOracle oracle(fp, opts);
  const auto result = check_evt_strong(sample_all(fp, oracle), fp);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_P(OracleSweep, ComposedPairCombinesComponents) {
  const FailurePattern fp = pattern();
  OmegaOptions oo;
  oo.stabilize_at = kStabilize;
  oo.seed = GetParam().seed;
  OmegaOracle omega(fp, oo);
  SigmaNuPlusOptions so;
  so.stabilize_at = kStabilize;
  so.seed = GetParam().seed + 1;
  SigmaNuPlusOracle sigma(fp, so);
  ComposedOracle pair(omega, sigma);

  const auto h = sample_all(fp, pair);
  for (const Sample& s : h.samples()) {
    EXPECT_TRUE(s.value.has_leader());
    EXPECT_TRUE(s.value.has_quorum());
    EXPECT_EQ(s.value.leader(), omega.value(s.p, s.t).leader());
    EXPECT_EQ(s.value.quorum(), sigma.value(s.p, s.t).quorum());
  }
  EXPECT_TRUE(check_omega(h, fp).ok);
  EXPECT_TRUE(check_sigma_nu_plus(h, fp).ok);
}

TEST_P(OracleSweep, NoQuorumOracleEverEmitsAnEmptyQuorum) {
  // Regression: the kNoise faulty branch once drew k from [0, n], and k=0
  // produced an empty quorum that vacuously satisfied every
  // "quorum ⊆ heard-from" wait. No mode of any quorum oracle may do that.
  const FailurePattern fp = pattern();
  for (const auto behavior :
       {FaultyQuorumBehavior::kBenign, FaultyQuorumBehavior::kNoise,
        FaultyQuorumBehavior::kAdversarialDisjoint}) {
    SigmaNuOptions nu;
    nu.stabilize_at = kStabilize;
    nu.seed = GetParam().seed;
    nu.faulty = behavior;
    SigmaNuOracle nu_oracle(fp, nu);
    // The history is a named local: a range-for over a member of the
    // temporary sample_all() returns would read it after it died.
    const RecordedHistory nu_history = sample_all(fp, nu_oracle);
    for (const Sample& s : nu_history.samples()) {
      EXPECT_FALSE(s.value.quorum().empty())
          << "Sigma^nu mode " << static_cast<int>(behavior) << " at p=" << s.p
          << " t=" << s.t;
    }

    SigmaNuPlusOptions plus;
    plus.stabilize_at = kStabilize;
    plus.seed = GetParam().seed;
    plus.faulty = behavior;
    SigmaNuPlusOracle plus_oracle(fp, plus);
    const RecordedHistory plus_history = sample_all(fp, plus_oracle);
    for (const Sample& s : plus_history.samples()) {
      EXPECT_FALSE(s.value.quorum().empty())
          << "Sigma^nu+ mode " << static_cast<int>(behavior) << " at p=" << s.p
          << " t=" << s.t;
    }
  }
  for (const auto strategy : {SigmaStrategy::kKernel, SigmaStrategy::kMajority}) {
    if (strategy == SigmaStrategy::kMajority &&
        !is_majority(fp.correct(), fp.n())) {
      continue;
    }
    SigmaOptions so;
    so.stabilize_at = kStabilize;
    so.seed = GetParam().seed;
    so.strategy = strategy;
    SigmaOracle oracle(fp, so);
    const RecordedHistory history = sample_all(fp, oracle);
    for (const Sample& s : history.samples()) {
      EXPECT_FALSE(s.value.quorum().empty()) << "Sigma at p=" << s.p;
    }
  }
}

TEST_P(OracleSweep, OracleIsAProperFunctionOfPAndT) {
  const FailurePattern fp = pattern();
  SigmaNuPlusOptions opts;
  opts.stabilize_at = kStabilize;
  opts.seed = GetParam().seed;
  SigmaNuPlusOracle oracle(fp, opts);
  for (Time t = 1; t < 50; t += 7) {
    for (Pid p = 0; p < fp.n(); ++p) {
      EXPECT_EQ(oracle.value(p, t), oracle.value(p, t));
    }
  }
}

TEST_P(OracleSweep, WindowMemoMatchesStatelessDraw) {
  // Every Sigma-family oracle, behavior and strategy at hold 1, 8 and 10^6,
  // queried in scheduler order, in random order with time going backwards,
  // and with repeated (p, t), including both sides of stabilize_at and of
  // the window edges k*hold.
  const FailurePattern fp = pattern();
  testutil::expect_sigma_family_memo_exact(fp, kStabilize, kHorizon,
                                           /*random_count=*/300,
                                           GetParam().seed);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (Pid n : {2, 3, 4, 5, 7}) {
    for (Pid faults = 0; faults < n; ++faults) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleSweep, testing::ValuesIn(sweep_params()),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_f" +
                                  std::to_string(info.param.faults) + "_s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace nucon
