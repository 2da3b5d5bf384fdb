// The wide-ProcessSet regime (n > 64) and the incremental QuorumHistory
// caches — the `scale` label's correctness floor.
//
// ProcessSet grew from one 64-bit mask to kMaxProcesses=1024 with a
// single-word fast path, so every operation is exercised exactly where
// the representation changes shape: widths 63/64/65 (the word boundary)
// and 127/128/1000 (interior boundaries and the top of the range). The
// QuorumHistory half is an equivalence oracle: randomized insert/import
// sequences where every cached considered_faulty / distrusts answer must
// match the recompute-from-scratch reference (*_slow) — the same checks
// the !NDEBUG asserts run inline, kept alive here because the CI presets
// compile with -DNDEBUG. The last part checks the Sigma-family oracles'
// window memo against the stateless draw on multi-word quorums.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/quorum_history.hpp"
#include "oracle_memo_util.hpp"
#include "sim/failure_pattern.hpp"
#include "util/bytes.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace nucon {
namespace {

constexpr Pid kWidths[] = {63, 64, 65, 127, 128, 1000};

/// A deterministic scattered subset of [0, n): every third-ish member,
/// always including both endpoints and the word-boundary neighbours.
ProcessSet scattered(Pid n) {
  ProcessSet s;
  for (Pid p = 0; p < n; p += 3) s.insert(p);
  s.insert(0);
  s.insert(n - 1);
  for (Pid edge : {62, 63, 64, 65, 126, 127, 128}) {
    if (edge < n) s.insert(edge);
  }
  return s;
}

TEST(WideProcessSet, InsertContainsAcrossWordBoundaries) {
  ProcessSet s;
  const std::vector<Pid> members = {0, 62, 63, 64, 65, 126, 127, 128, 999};
  for (Pid p : members) s.insert(p);
  EXPECT_EQ(s.size(), static_cast<int>(members.size()));
  for (Pid p : members) EXPECT_TRUE(s.contains(p)) << p;
  for (Pid p : {1, 61, 66, 125, 129, 998, 1023}) {
    EXPECT_FALSE(s.contains(p)) << p;
  }
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 999);
  s.erase(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(65));
  EXPECT_EQ(s.size(), static_cast<int>(members.size()) - 1);
}

TEST(WideProcessSet, UniverseAtEveryBoundaryWidth) {
  for (const Pid n : kWidths) {
    const ProcessSet u = ProcessSet::full(n);
    EXPECT_EQ(u.size(), n) << n;
    EXPECT_TRUE(u.contains(0)) << n;
    EXPECT_TRUE(u.contains(n - 1)) << n;
    EXPECT_FALSE(u.contains(n)) << n;
    EXPECT_EQ(u.min(), 0) << n;
    EXPECT_EQ(u.max(), n - 1) << n;
  }
}

TEST(WideProcessSet, ComplementAgainstTheUniverse) {
  for (const Pid n : kWidths) {
    const ProcessSet u = ProcessSet::full(n);
    const ProcessSet s = scattered(n);
    const ProcessSet comp = u - s;
    EXPECT_EQ(comp.size(), n - s.size()) << n;
    EXPECT_EQ((s | comp), u) << n;
    EXPECT_TRUE((s & comp).empty()) << n;
    EXPECT_FALSE(s.intersects(comp)) << n;
    // Complementing twice returns the original set.
    EXPECT_EQ(u - comp, s) << n;
  }
}

TEST(WideProcessSet, DisjointSplitsDetectEachOther) {
  for (const Pid n : kWidths) {
    // Even/odd split: disjoint, covering, both straddling every word.
    ProcessSet even;
    ProcessSet odd;
    for (Pid p = 0; p < n; ++p) (p % 2 == 0 ? even : odd).insert(p);
    EXPECT_FALSE(even.intersects(odd)) << n;
    EXPECT_TRUE((even & odd).empty()) << n;
    EXPECT_EQ((even | odd), ProcessSet::full(n)) << n;
    EXPECT_TRUE(even.is_subset_of(ProcessSet::full(n))) << n;
    EXPECT_FALSE(even.is_subset_of(odd)) << n;
    // One shared member flips intersects.
    ProcessSet odd_plus = odd;
    odd_plus.insert(even.max());
    EXPECT_TRUE(even.intersects(odd_plus)) << n;
  }
}

TEST(WideProcessSet, PopcountMatchesIteration) {
  for (const Pid n : kWidths) {
    const ProcessSet s = scattered(n);
    int count = 0;
    Pid prev = -1;
    for (Pid p : s) {
      EXPECT_LT(prev, p);  // ascending iteration across word boundaries
      prev = p;
      ++count;
    }
    EXPECT_EQ(s.size(), count) << n;
    // nth() is the iteration order's random-access form.
    EXPECT_EQ(s.nth(0), s.min()) << n;
    EXPECT_EQ(s.nth(s.size() - 1), s.max()) << n;
  }
}

TEST(WideProcessSet, OrderingIsNumericAcrossWords) {
  // The total order extends the old single-mask order: any set containing
  // a bit >= 64 compares above every single-word set.
  EXPECT_LT(ProcessSet{63}, ProcessSet{64});
  EXPECT_LT(ProcessSet::full(64), ProcessSet{64});
  EXPECT_LT((ProcessSet{0, 64}), (ProcessSet{1, 64}));
  EXPECT_LT(ProcessSet{64}, ProcessSet{128});
  std::set<ProcessSet> sorted;
  sorted.insert(ProcessSet{64});
  sorted.insert(ProcessSet{63});
  sorted.insert(ProcessSet{64});  // duplicate
  sorted.insert(ProcessSet{999});
  EXPECT_EQ(sorted.size(), 3u);
  EXPECT_EQ(*sorted.begin(), ProcessSet{63});
  EXPECT_EQ(*sorted.rbegin(), ProcessSet{999});
}

TEST(WideProcessSet, EncodeDecodeRoundTripsAtEveryWidth) {
  Rng rng(2026);
  for (const Pid n : kWidths) {
    for (int trial = 0; trial < 8; ++trial) {
      const int k = static_cast<int>(rng.below(static_cast<std::uint64_t>(n) + 1));
      const ProcessSet s = rng.pick_subset(ProcessSet::full(n), k);
      ByteWriter w;
      w.process_set(s, n);
      const Bytes bytes = w.take();
      EXPECT_EQ(bytes.size(), 8u * ((static_cast<std::size_t>(n) + 63) / 64));
      ByteReader r(bytes);
      const auto back = r.process_set(n);
      ASSERT_TRUE(back.has_value()) << n;
      EXPECT_EQ(*back, s) << n;
    }
  }
}

TEST(WideProcessSet, WidthAwareEncodingMatchesLegacyBelow64) {
  // The wire-format compatibility contract: for n <= 64 the width-aware
  // encoder must emit exactly the legacy single-u64 bytes.
  Rng rng(7);
  for (const Pid n : {1, 5, 63, 64}) {
    const ProcessSet s =
        rng.pick_subset(ProcessSet::full(n), static_cast<int>(n / 2));
    ByteWriter aware;
    aware.process_set(s, n);
    ByteWriter legacy;
    legacy.process_set(s);
    EXPECT_EQ(aware.take(), legacy.take()) << n;
  }
}

TEST(WideProcessSet, CrossWidthDecodeIsRejected) {
  // A set with members at/above the reader's width must not decode: the
  // width is derived from n on both sides, so stray high bits are the
  // signature of a mismatched encoding.
  ProcessSet s{10, 64};
  ByteWriter w;
  w.process_set(s, 65);
  const Bytes wide = w.take();
  {
    // Control: decoding at the width it was encoded at round-trips.
    ByteReader r(wide);
    const auto back = r.process_set(65);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
  {
    // Two-word payload with a member above the reader's width: rejected.
    ProcessSet high{10, 70};
    ByteWriter w2;
    w2.process_set(high, 128);
    const Bytes b2 = w2.take();
    ByteReader r2(b2);
    EXPECT_FALSE(r2.process_set(65).has_value());
  }
  {
    // Single-word case: bit 63 encoded at width 64 must not decode at 63.
    ByteWriter w3;
    w3.process_set(ProcessSet{63}, 64);
    const Bytes b3 = w3.take();
    ByteReader r3(b3);
    EXPECT_FALSE(r3.process_set(63).has_value());
    ByteReader r4(b3);
    EXPECT_TRUE(r4.process_set(64).has_value());
  }
}

TEST(WideProcessSet, MajorityAtScale) {
  EXPECT_TRUE(is_majority(ProcessSet::full(501), 1000));
  EXPECT_FALSE(is_majority(ProcessSet::full(500), 1000));
  ProcessSet top_half;
  for (Pid p = 500; p < 1000; ++p) top_half.insert(p);
  EXPECT_FALSE(is_majority(top_half, 1000));
  top_half.insert(42);
  EXPECT_TRUE(is_majority(top_half, 1000));
}

// ---------------------------------------------------------------------------
// QuorumHistory: incremental caches vs recompute-from-scratch reference.

/// Asserts every cached query agrees with its *_slow reference on `h`.
void expect_cache_matches_reference(const QuorumHistory& h,
                                    const char* context) {
  for (Pid p = 0; p < h.n(); ++p) {
    EXPECT_EQ(h.considered_faulty(p), h.considered_faulty_slow(p))
        << context << ": considered_faulty(" << p << ")";
    for (Pid q = 0; q < h.n(); ++q) {
      EXPECT_EQ(h.distrusts(p, q), h.distrusts_slow(p, q))
          << context << ": distrusts(" << p << ", " << q << ")";
    }
  }
}

/// A random quorum biased toward collisions: half the draws come from a
/// small pool of shapes so disjointness and shared-value cases both occur.
ProcessSet random_quorum(Rng& rng, Pid n) {
  if (rng.chance(1, 10)) return {};  // empty quorum: disjoint from itself
  if (rng.chance(1, 2)) {
    // Pool shape: one of the four quarters of [0, n).
    const Pid quarter = n / 4;
    const auto which = static_cast<Pid>(rng.below(4));
    ProcessSet s;
    for (Pid p = which * quarter; p < (which + 1) * quarter; ++p) s.insert(p);
    return s;
  }
  const int k = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  return rng.pick_subset(ProcessSet::full(n), k);
}

TEST(QuorumHistoryScale, IncrementalMatchesReferenceOnRandomInserts) {
  const Pid n = 12;
  Rng rng(0xC0FFEE);
  QuorumHistory h(n);
  for (int step = 0; step < 160; ++step) {
    const Pid owner = static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
    h.insert(owner, random_quorum(rng, n));
    if (step % 8 == 7) expect_cache_matches_reference(h, "insert sequence");
  }
  expect_cache_matches_reference(h, "insert final");
}

TEST(QuorumHistoryScale, IncrementalMatchesReferenceAcrossImports) {
  const Pid n = 10;
  Rng rng(0xFEED);
  QuorumHistory a(n);
  QuorumHistory b(n);
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 6; ++i) {
      const Pid owner = static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
      (rng.chance(1, 2) ? a : b).insert(owner, random_quorum(rng, n));
    }
    // Query one side (warming its cache), then import into it: the merge
    // must keep the warmed cache consistent, not just a cold one.
    (void)a.considered_faulty(0);
    (void)a.distrusts(0, 1);
    if (rng.chance(1, 2)) {
      a.import(b);
      expect_cache_matches_reference(a, "import b into a");
    } else {
      b.import(a);
      expect_cache_matches_reference(b, "import a into b");
    }
  }
  a.import(b);
  b.import(a);
  expect_cache_matches_reference(a, "final a");
  expect_cache_matches_reference(b, "final b");
}

TEST(QuorumHistoryScale, CopiesAndCodecPreserveCacheConsistency) {
  const Pid n = 8;
  Rng rng(0xDEAD);
  QuorumHistory h(n);
  for (int i = 0; i < 40; ++i) {
    h.insert(static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n))),
             random_quorum(rng, n));
  }
  (void)h.considered_faulty(3);  // warm the cache before copying

  QuorumHistory copy = h;
  copy.insert(0, ProcessSet{7});  // diverge the copy
  expect_cache_matches_reference(copy, "mutated copy");
  expect_cache_matches_reference(h, "original after copy mutation");

  ByteWriter w;
  h.encode(w);
  const Bytes bytes = w.take();
  ByteReader r(bytes);
  const auto decoded = QuorumHistory::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), h.size());
  expect_cache_matches_reference(*decoded, "decoded");
  for (Pid p = 0; p < n; ++p) {
    EXPECT_EQ(decoded->considered_faulty(p), h.considered_faulty(p)) << p;
  }
}

TEST(QuorumHistoryScale, WideHistoriesStayConsistent) {
  // The same oracle beyond the old 64-process ceiling: fewer steps (the
  // reference is the quadratic recompute) but real multi-word quorums.
  const Pid n = 80;
  Rng rng(0xB16);
  QuorumHistory h(n);
  ProcessSet left;
  ProcessSet right;
  for (Pid p = 0; p < n; ++p) (p < n / 2 ? left : right).insert(p);
  h.insert(0, left);
  h.insert(1, right);  // disjoint from left: 0 and 1 each see the other
  EXPECT_TRUE(h.considered_faulty(0).contains(1));
  EXPECT_TRUE(h.considered_faulty(1).contains(0));
  for (int i = 0; i < 24; ++i) {
    h.insert(static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n))),
             random_quorum(rng, n));
  }
  for (Pid p = 0; p < 8; ++p) {
    EXPECT_EQ(h.considered_faulty(p), h.considered_faulty_slow(p)) << p;
    for (Pid q = 0; q < 8; ++q) {
      EXPECT_EQ(h.distrusts(p, q), h.distrusts_slow(p, q)) << p << "," << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Sigma-family window memo vs the stateless draw, past one word.

/// Faulty processes below, at and (for n > 65) past pid 64, crashing before
/// and after stabilization at 100; a correct majority remains.
FailurePattern wide_crash_pattern(Pid n) {
  FailurePattern fp(n);
  fp.set_crash(3, 20);
  fp.set_crash(64, 150);
  if (n - 1 != 64) fp.set_crash(n - 1, 90);
  return fp;
}

TEST(WindowMemoScale, MemoizedOraclesMatchStatelessDrawAt65) {
  testutil::expect_sigma_family_memo_exact(wide_crash_pattern(65),
                                           /*stabilize=*/100, /*horizon=*/260,
                                           /*random_count=*/200, /*seed=*/65);
}

TEST(WindowMemoScale, MemoizedOraclesMatchStatelessDrawAt128) {
  testutil::expect_sigma_family_memo_exact(wide_crash_pattern(128),
                                           /*stabilize=*/100, /*horizon=*/260,
                                           /*random_count=*/200, /*seed=*/128);
}

}  // namespace
}  // namespace nucon
