// Pins the stabilization boundary convention shared by every generated
// oracle with a `stabilize_at` knob (see the file header of
// fd/failure_detector.hpp): the boundary is INCLUSIVE — at t == stabilize_at
// the module is already stable, t == stabilize_at - 1 is the last tick that
// may be noisy. One table drives the check across all five oracle files
// (omega.cpp, classic.cpp, sigma.cpp, sigma_nu.cpp, sigma_nu_plus.cpp).
//
// Also the regression tests for OmegaOracle's configured-leader validation
// and SigmaOracle's majority precondition: a faulty or out-of-range
// eventual leader, or majority quorums without a correct majority, must
// throw, in release builds too, instead of silently violating the class
// (or, for majority quorums, dividing by zero).
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "fd/classic.hpp"
#include "fd/omega.hpp"
#include "fd/oracle_base.hpp"
#include "fd/sigma.hpp"
#include "fd/sigma_nu.hpp"

namespace nucon {
namespace {

constexpr Time kStabilize = 50;
constexpr std::uint64_t kSeed = 9;

/// n=4, p3 crashes well before stabilization; correct = {0, 1, 2} and the
/// conventional kernel/leader/safe process is 0.
FailurePattern boundary_pattern() {
  FailurePattern fp(4);
  fp.set_crash(3, 10);
  return fp;
}

struct BoundaryCase {
  const char* name;
  /// Samples the oracle at (p, t).
  std::function<FdValue(Pid, Time)> value;
  /// Whether a sample of a *correct* module satisfies the oracle's
  /// post-stabilization guarantee.
  std::function<bool(Pid p, const FdValue& v)> stable_ok;
};

class StabilizationBoundary : public testing::Test {
 protected:
  StabilizationBoundary()
      : fp_(boundary_pattern()),
        omega_(fp_, omega_opts()),
        evt_perfect_(fp_, suspects_opts()),
        strong_(fp_, suspects_opts()),
        evt_strong_(fp_, suspects_opts()),
        sigma_kernel_(fp_, sigma_opts(SigmaStrategy::kKernel)),
        sigma_majority_(fp_, sigma_opts(SigmaStrategy::kMajority)),
        sigma_nu_(fp_, sigma_nu_opts()),
        sigma_nu_plus_(fp_, sigma_nu_plus_opts()) {}

  static OmegaOptions omega_opts() {
    OmegaOptions o;
    o.stabilize_at = kStabilize;
    o.seed = kSeed;
    return o;
  }
  static SuspectsOptions suspects_opts() {
    SuspectsOptions o;
    o.stabilize_at = kStabilize;
    o.seed = kSeed;
    return o;
  }
  static SigmaOptions sigma_opts(SigmaStrategy strategy) {
    SigmaOptions o;
    o.stabilize_at = kStabilize;
    o.seed = kSeed;
    o.strategy = strategy;
    return o;
  }
  static SigmaNuOptions sigma_nu_opts() {
    SigmaNuOptions o;
    o.stabilize_at = kStabilize;
    o.seed = kSeed;
    return o;
  }
  static SigmaNuPlusOptions sigma_nu_plus_opts() {
    SigmaNuPlusOptions o;
    o.stabilize_at = kStabilize;
    o.seed = kSeed;
    return o;
  }

  std::vector<BoundaryCase> table() {
    const ProcessSet correct = fp_.correct();
    const ProcessSet faulty = fp_.faulty();
    const auto subset_of_correct = [correct](const FdValue& v) {
      return (v.quorum() - correct).empty();
    };
    return {
        {"omega",
         [this](Pid p, Time t) { return omega_.value(p, t); },
         [](Pid, const FdValue& v) { return v.leader() == 0; }},
        {"evt_perfect",
         [this](Pid p, Time t) { return evt_perfect_.value(p, t); },
         [faulty](Pid, const FdValue& v) { return v.suspects() == faulty; }},
        {"strong",
         [this](Pid p, Time t) { return strong_.value(p, t); },
         [faulty](Pid, const FdValue& v) {
           return v.suspects() == faulty - ProcessSet::single(0);
         }},
        {"evt_strong",
         [this](Pid p, Time t) { return evt_strong_.value(p, t); },
         [faulty](Pid, const FdValue& v) { return v.suspects() == faulty; }},
        {"sigma_kernel",
         [this](Pid p, Time t) { return sigma_kernel_.value(p, t); },
         [subset_of_correct](Pid, const FdValue& v) {
           return subset_of_correct(v) && v.quorum().contains(0);
         }},
        {"sigma_majority",
         [this](Pid p, Time t) { return sigma_majority_.value(p, t); },
         [subset_of_correct](Pid, const FdValue& v) {
           return subset_of_correct(v) && v.quorum().size() == 3;
         }},
        {"sigma_nu",
         [this](Pid p, Time t) { return sigma_nu_.value(p, t); },
         [subset_of_correct](Pid, const FdValue& v) {
           return subset_of_correct(v) && v.quorum().contains(0);
         }},
        {"sigma_nu_plus",
         [this](Pid p, Time t) { return sigma_nu_plus_.value(p, t); },
         [subset_of_correct](Pid p, const FdValue& v) {
           return subset_of_correct(v) && v.quorum().contains(0) &&
                  v.quorum().contains(p);
         }},
    };
  }

  FailurePattern fp_;
  OmegaOracle omega_;
  EvtPerfectOracle evt_perfect_;
  StrongOracle strong_;
  EvtStrongOracle evt_strong_;
  SigmaOracle sigma_kernel_;
  SigmaOracle sigma_majority_;
  SigmaNuOracle sigma_nu_;
  SigmaNuPlusOracle sigma_nu_plus_;
};

TEST_F(StabilizationBoundary, StableExactlyFromStabilizeAtOn) {
  // t == stabilize_at is already stable — an oracle using `t >` anywhere
  // fails here on the very first tick.
  for (const BoundaryCase& c : table()) {
    for (const Time t : {kStabilize, kStabilize + 1, kStabilize + 9,
                         kStabilize + 500}) {
      for (Pid p : fp_.correct()) {
        const FdValue v = c.value(p, t);
        EXPECT_TRUE(c.stable_ok(p, v))
            << c.name << " not stable at p=" << p << " t=" << t
            << " (boundary must be inclusive)";
      }
    }
  }
}

TEST_F(StabilizationBoundary, NoisyBranchRunsUpToTheBoundary) {
  // The last pre-boundary window is still the noisy branch: some sample in
  // [stabilize_at - 8, stabilize_at - 1] violates the stable guarantee.
  // (8 = one hold window of the quorum oracles, so every oracle redraws.)
  for (const BoundaryCase& c : table()) {
    bool violated = false;
    for (Time t = kStabilize - 8; t < kStabilize && !violated; ++t) {
      for (Pid p : fp_.correct()) {
        violated = violated || !c.stable_ok(p, c.value(p, t));
      }
    }
    EXPECT_TRUE(violated) << c.name
                          << ": pre-boundary samples all satisfied the "
                             "stable guarantee; noisy branch unreachable?";
  }
}

TEST_F(StabilizationBoundary, OmegaTakesTheNoisyBranchAtStabilizeMinusOne) {
  // Sharp version for omega.cpp: at t == stabilize_at - 1 the output is
  // exactly the documented noise function, at t == stabilize_at exactly the
  // eventual leader. This distinguishes `>=` from `>` on both sides.
  for (Pid p = 0; p < fp_.n(); ++p) {
    const Pid noisy = static_cast<Pid>(
        oracle_mix(kSeed, p, kStabilize - 1) %
        static_cast<std::uint64_t>(fp_.n()));
    EXPECT_EQ(omega_.value(p, kStabilize - 1), FdValue::of_leader(noisy));
    EXPECT_EQ(omega_.value(p, kStabilize), FdValue::of_leader(0));
  }
}

// --- OmegaOracle configured-leader validation (regression) ------------------

TEST(OmegaLeaderValidation, FaultyConfiguredLeaderThrows) {
  FailurePattern fp(3);
  fp.set_crash(0, 10);
  OmegaOptions opts;
  opts.leader = 0;  // crashes: not a legal eventual leader
  try {
    OmegaOracle oracle(fp, opts);
    FAIL() << "constructor accepted a faulty eventual leader";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not a correct process"),
              std::string::npos)
        << e.what();
  }
}

TEST(OmegaLeaderValidation, OutOfRangeConfiguredLeaderThrows) {
  const FailurePattern fp(3);
  OmegaOptions opts;
  opts.leader = 3;  // >= n
  EXPECT_THROW(OmegaOracle(fp, opts), std::invalid_argument);
  opts.leader = 64;
  EXPECT_THROW(OmegaOracle(fp, opts), std::invalid_argument);
}

TEST(OmegaLeaderValidation, CorrectConfiguredLeaderAccepted) {
  FailurePattern fp(3);
  fp.set_crash(0, 10);
  OmegaOptions opts;
  opts.leader = 2;
  OmegaOracle oracle(fp, opts);
  EXPECT_EQ(oracle.eventual_leader(), 2);
  EXPECT_EQ(oracle.value(1, 1000), FdValue::of_leader(2));
}

TEST(OmegaLeaderValidation, DefaultLeaderIsSmallestCorrect) {
  FailurePattern fp(3);
  fp.set_crash(0, 10);
  OmegaOracle oracle(fp, OmegaOptions{});
  EXPECT_EQ(oracle.eventual_leader(), 1);
}

TEST(OmegaLeaderValidation, AllFaultyPatternAcceptsAnyInRangeLeader) {
  // With no correct process Omega imposes nothing; an in-range configured
  // leader is tolerated (there is no correct candidate to demand).
  FailurePattern fp(2);
  fp.set_crash(0, 5);
  fp.set_crash(1, 5);
  OmegaOptions opts;
  opts.leader = 1;
  OmegaOracle oracle(fp, opts);
  EXPECT_EQ(oracle.eventual_leader(), 1);
}

// --- SigmaOracle majority precondition (regression) -------------------------

TEST(SigmaMajorityValidation, MinorityCorrectThrows) {
  // n=3 with one correct process: past stabilization a release build used
  // to draw a 2-process majority out of {0} and die on Rng::below(0).
  FailurePattern fp(3);
  fp.set_crash(1, 5);
  fp.set_crash(2, 5);
  SigmaOptions opts;
  opts.strategy = SigmaStrategy::kMajority;
  EXPECT_THROW(SigmaOracle(fp, opts), std::invalid_argument);
}

TEST(SigmaMajorityValidation, ExactlyHalfCorrectThrows) {
  FailurePattern fp(4);
  fp.set_crash(2, 5);
  fp.set_crash(3, 5);
  SigmaOptions opts;
  opts.strategy = SigmaStrategy::kMajority;
  EXPECT_THROW(SigmaOracle(fp, opts), std::invalid_argument);
}

TEST(SigmaMajorityValidation, KernelStrategyAcceptsACorrectMinority) {
  FailurePattern fp(3);
  fp.set_crash(1, 5);
  fp.set_crash(2, 5);
  SigmaOracle oracle(fp, SigmaOptions{});
  EXPECT_EQ(oracle.value(0, 1000), FdValue::of_quorum(ProcessSet{0}));
}

}  // namespace
}  // namespace nucon
