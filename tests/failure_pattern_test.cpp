#include "sim/failure_pattern.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nucon {
namespace {

TEST(FailurePattern, AllCorrectByDefault) {
  const FailurePattern fp(4);
  EXPECT_EQ(fp.n(), 4);
  EXPECT_TRUE(fp.faulty().empty());
  EXPECT_EQ(fp.correct(), ProcessSet::full(4));
  EXPECT_TRUE(fp.crashed_at(1000).empty());
}

TEST(FailurePattern, CrashTimesRespected) {
  FailurePattern fp(3);
  fp.set_crash(1, 10);
  EXPECT_EQ(fp.faulty(), ProcessSet{1});
  EXPECT_EQ(fp.correct(), (ProcessSet{0, 2}));
  EXPECT_TRUE(fp.alive_at(1, 9));
  EXPECT_FALSE(fp.alive_at(1, 10));
  EXPECT_FALSE(fp.alive_at(1, 11));
  EXPECT_TRUE(fp.alive_at(0, 1000000));
}

TEST(FailurePattern, AliveAtAgreesWithCrashedAt) {
  // alive_at reads the crash time directly; it must say exactly what the
  // set-building definition !crashed_at(t).contains(p) says, on both sides
  // of each crash, for processes that never crash, and past pid 64.
  FailurePattern fp(130);
  fp.set_crash(0, 0);
  fp.set_crash(5, 17);
  fp.set_crash(63, 40);
  fp.set_crash(64, 41);
  fp.set_crash(129, 100);
  for (Pid p : {0, 1, 5, 63, 64, 65, 128, 129}) {
    std::vector<Time> times = {-1, 0, 1, 1000};
    if (const Time crash = fp.crash_time(p); crash != kNeverCrashes) {
      times.insert(times.end(), {crash - 1, crash, crash + 1});
    }
    for (Time t : times) {
      EXPECT_EQ(fp.alive_at(p, t), !fp.crashed_at(t).contains(p))
          << "p=" << p << " t=" << t;
    }
  }
  EXPECT_TRUE(fp.alive_at(64, 40));
  EXPECT_FALSE(fp.alive_at(64, 41));
  EXPECT_TRUE(fp.alive_at(128, 1'000'000));
}

TEST(FailurePattern, CrashedAtIsMonotone) {
  FailurePattern fp(4);
  fp.set_crash(0, 5);
  fp.set_crash(2, 15);
  EXPECT_EQ(fp.crashed_at(0), ProcessSet{});
  EXPECT_EQ(fp.crashed_at(5), ProcessSet{0});
  EXPECT_EQ(fp.crashed_at(14), ProcessSet{0});
  EXPECT_EQ(fp.crashed_at(15), (ProcessSet{0, 2}));
  // F(t) subset of F(t+1) for every t.
  for (Time t = 0; t < 20; ++t) {
    EXPECT_TRUE(fp.crashed_at(t).is_subset_of(fp.crashed_at(t + 1)));
  }
}

TEST(FailurePattern, ConstructorFromVector) {
  const FailurePattern fp(3, {kNeverCrashes, 7, kNeverCrashes});
  EXPECT_EQ(fp.faulty(), ProcessSet{1});
  EXPECT_EQ(fp.crash_time(1), 7);
  EXPECT_EQ(fp.crash_time(0), kNeverCrashes);
}

TEST(FailurePattern, AllFaultyCrashedBy) {
  FailurePattern fp(4);
  EXPECT_EQ(fp.all_faulty_crashed_by(), 0);
  fp.set_crash(1, 10);
  fp.set_crash(3, 30);
  EXPECT_EQ(fp.all_faulty_crashed_by(), 30);
}

TEST(FailurePattern, ToStringMentionsCrashes) {
  FailurePattern fp(3);
  fp.set_crash(2, 9);
  const std::string s = fp.to_string();
  EXPECT_NE(s.find("2@9"), std::string::npos);
}

TEST(Environment, MajorityCorrectPredicate) {
  EXPECT_TRUE((Environment{5, 2}).majority_correct());
  EXPECT_FALSE((Environment{4, 2}).majority_correct());
  EXPECT_TRUE((Environment{4, 1}).majority_correct());
  EXPECT_FALSE((Environment{2, 1}).majority_correct());
}

TEST(Environment, SampleRespectsFaultBound) {
  const Environment env{6, 3};
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const FailurePattern fp = env.sample(rng, 100);
    EXPECT_LE(fp.faulty().size(), 3);
    EXPECT_EQ(fp.n(), 6);
    for (Pid p : fp.faulty()) {
      EXPECT_GE(fp.crash_time(p), 0);
      EXPECT_LE(fp.crash_time(p), 100);
    }
  }
}

TEST(Environment, SampleExactFaults) {
  const Environment env{5, 4};
  Rng rng(7);
  for (Pid f = 0; f <= 4; ++f) {
    const FailurePattern fp = env.sample(rng, f, 50);
    EXPECT_EQ(fp.faulty().size(), f);
  }
}

TEST(Environment, SampleCoversDifferentVictims) {
  const Environment env{4, 2};
  Rng rng(3);
  ProcessSet ever_faulty;
  for (int i = 0; i < 100; ++i) {
    ever_faulty |= env.sample(rng, 2, 10).faulty();
  }
  EXPECT_EQ(ever_faulty, ProcessSet::full(4));
}

}  // namespace
}  // namespace nucon
