// Properties of the oracle construction helpers: the noisy-superset
// generator and the deterministic mix underlie every oracle's legality, so
// they get their own property tests; the window memo gets draw-counting
// tests of its contract.
#include "fd/oracle_base.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "oracle_memo_util.hpp"

namespace nucon {
namespace {

TEST(OracleMix, DeterministicInAllArguments) {
  EXPECT_EQ(oracle_mix(1, 2, 3, 4), oracle_mix(1, 2, 3, 4));
  EXPECT_NE(oracle_mix(1, 2, 3, 4), oracle_mix(2, 2, 3, 4));
  EXPECT_NE(oracle_mix(1, 2, 3, 4), oracle_mix(1, 3, 3, 4));
  EXPECT_NE(oracle_mix(1, 2, 3, 4), oracle_mix(1, 2, 4, 4));
  EXPECT_NE(oracle_mix(1, 2, 3, 4), oracle_mix(1, 2, 3, 5));
}

TEST(OracleMix, SpreadsAcrossTime) {
  std::set<std::uint64_t> seen;
  for (Time t = 0; t < 1000; ++t) seen.insert(oracle_mix(7, 0, t));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(NoisySuperset, AlwaysContainsTheCore) {
  const ProcessSet core{1, 3};
  const ProcessSet universe = ProcessSet::full(8);
  for (std::uint64_t mix = 0; mix < 500; ++mix) {
    const ProcessSet q = noisy_superset(core, universe, mix);
    EXPECT_TRUE(core.is_subset_of(q)) << q.to_string();
    EXPECT_TRUE(q.is_subset_of(universe | core)) << q.to_string();
  }
}

TEST(NoisySuperset, StaysInsideUniversePlusCore) {
  const ProcessSet core{0};
  const ProcessSet universe{0, 1, 2};
  for (std::uint64_t mix = 0; mix < 200; ++mix) {
    EXPECT_TRUE(noisy_superset(core, universe, mix)
                    .is_subset_of(ProcessSet{0, 1, 2}));
  }
}

TEST(NoisySuperset, CoreOutsideUniverseIsStillIncluded) {
  // The Sigma^nu+ oracle uses noisy_superset({p, kernel}, correct | {p}):
  // a faulty p stays included even though it is outside the stable
  // universe.
  const ProcessSet core{5};
  const ProcessSet universe{0, 1};
  for (std::uint64_t mix = 0; mix < 100; ++mix) {
    EXPECT_TRUE(noisy_superset(core, universe, mix).contains(5));
  }
}

TEST(NoisySuperset, ActuallyVaries) {
  const ProcessSet core{0};
  const ProcessSet universe = ProcessSet::full(10);
  std::set<std::uint64_t> distinct;
  for (std::uint64_t mix = 0; mix < 200; ++mix) {
    distinct.insert(noisy_superset(core, universe, mix).mask());
  }
  EXPECT_GT(distinct.size(), 20u);
}

TEST(NoisySuperset, DeterministicPerMix) {
  const ProcessSet core{2};
  const ProcessSet universe = ProcessSet::full(6);
  for (std::uint64_t mix : {0ull, 17ull, 999ull}) {
    EXPECT_EQ(noisy_superset(core, universe, mix),
              noisy_superset(core, universe, mix));
  }
}

// --- WindowMemo -------------------------------------------------------------

/// A draw that counts its calls and returns a value unique to the call, so
/// a test can tell a stored answer from a fresh one.
struct CountingDraw {
  int calls = 0;
  FdValue operator()() {
    ++calls;
    return FdValue::of_leader(calls);
  }
};

TEST(WindowMemo, HoldPastTheHorizonDrawsAtMostTwicePerProcess) {
  // The post-GST regime: one window spans the run, so each process draws
  // once before stabilization and once after.
  constexpr Pid kN = 6;
  constexpr Time kStabilize = 40;
  constexpr Time kHold = 1'000'000;
  WindowMemo memo(kN);
  std::vector<int> draws(kN, 0);
  for (const auto& [p, t] :
       testutil::scheduler_order(FailurePattern(kN), /*horizon=*/600, 17)) {
    (void)memo.get(p, t / kHold, t >= kStabilize, [&, p = p] {
      ++draws[static_cast<std::size_t>(p)];
      return FdValue::of_leader(p);
    });
  }
  for (Pid p = 0; p < kN; ++p) {
    EXPECT_EQ(draws[static_cast<std::size_t>(p)], 2) << "p=" << p;
  }
}

TEST(WindowMemo, SameKeyIsStoredAndEveryOtherKeyRedraws) {
  WindowMemo memo(3);
  CountingDraw draw;
  const FdValue first = memo.get(1, 5, false, std::ref(draw));
  EXPECT_EQ(memo.get(1, 5, false, std::ref(draw)), first);
  EXPECT_EQ(draw.calls, 1);
  // Another process has its own entry.
  (void)memo.get(2, 5, false, std::ref(draw));
  EXPECT_EQ(draw.calls, 2);
  EXPECT_EQ(memo.get(1, 5, false, std::ref(draw)), first);
  EXPECT_EQ(draw.calls, 2);
  // A new window, the stabilization flip, and time going back to the old
  // window each redraw: the memo keeps only the last key per process.
  (void)memo.get(1, 6, false, std::ref(draw));
  EXPECT_EQ(draw.calls, 3);
  (void)memo.get(1, 6, true, std::ref(draw));
  EXPECT_EQ(draw.calls, 4);
  const FdValue again = memo.get(1, 5, false, std::ref(draw));
  EXPECT_EQ(draw.calls, 5);
  EXPECT_NE(again, first);  // a fresh draw, not a stale entry
}

TEST(WindowMemo, EmptyEntryMatchesNoKey) {
  // No window value marks "empty": negative t reaches negative windows,
  // and the first query of every key, any sign, must draw.
  for (const Time window : {Time{0}, Time{-1}, Time{1},
                            std::numeric_limits<Time>::min(),
                            std::numeric_limits<Time>::max()}) {
    for (const bool stable : {false, true}) {
      WindowMemo memo(2);
      CountingDraw draw;
      EXPECT_EQ(memo.get(0, window, stable, std::ref(draw)),
                FdValue::of_leader(1));
      EXPECT_EQ(draw.calls, 1) << "window=" << window;
    }
  }
}

TEST(WindowMemo, PidsOutsideTheRangeAreNeverStored) {
  WindowMemo memo(3);
  CountingDraw draw;
  const FdValue in_range = memo.get(0, 0, false, std::ref(draw));
  for (const Pid p : {-1, 3, 64}) {
    const int before = draw.calls;
    (void)memo.get(p, 0, false, std::ref(draw));
    (void)memo.get(p, 0, false, std::ref(draw));
    EXPECT_EQ(draw.calls, before + 2) << "p=" << p;
  }
  EXPECT_EQ(memo.get(0, 0, false, std::ref(draw)), in_range);
}

}  // namespace
}  // namespace nucon
