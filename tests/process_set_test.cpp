#include "util/process_set.hpp"

#include <gtest/gtest.h>

#include <bitset>
#include <set>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace nucon {
namespace {

TEST(ProcessSet, DefaultIsEmpty) {
  ProcessSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.mask(), 0u);
}

TEST(ProcessSet, InitializerList) {
  ProcessSet s{0, 2, 5};
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(5));
}

TEST(ProcessSet, FullSet) {
  EXPECT_EQ(ProcessSet::full(0).size(), 0);
  EXPECT_EQ(ProcessSet::full(1).size(), 1);
  EXPECT_EQ(ProcessSet::full(5).size(), 5);
  EXPECT_EQ(ProcessSet::full(64).size(), 64);
  EXPECT_TRUE(ProcessSet::full(64).contains(63));
  EXPECT_FALSE(ProcessSet::full(5).contains(5));
}

TEST(ProcessSet, InsertErase) {
  ProcessSet s;
  s.insert(7);
  EXPECT_TRUE(s.contains(7));
  s.insert(7);  // idempotent
  EXPECT_EQ(s.size(), 1);
  s.erase(7);
  EXPECT_TRUE(s.empty());
  s.erase(7);  // idempotent
  EXPECT_TRUE(s.empty());
}

TEST(ProcessSet, SetOperations) {
  const ProcessSet a{0, 1, 2};
  const ProcessSet b{2, 3};
  EXPECT_EQ((a | b), (ProcessSet{0, 1, 2, 3}));
  EXPECT_EQ((a & b), ProcessSet{2});
  EXPECT_EQ((a - b), (ProcessSet{0, 1}));
  EXPECT_EQ((b - a), ProcessSet{3});
}

TEST(ProcessSet, CompoundAssignment) {
  ProcessSet a{0, 1};
  a |= ProcessSet{2};
  EXPECT_EQ(a, (ProcessSet{0, 1, 2}));
  a &= ProcessSet{1, 2, 3};
  EXPECT_EQ(a, (ProcessSet{1, 2}));
}

TEST(ProcessSet, Intersects) {
  EXPECT_TRUE((ProcessSet{0, 1}).intersects(ProcessSet{1, 2}));
  EXPECT_FALSE((ProcessSet{0, 1}).intersects(ProcessSet{2, 3}));
  EXPECT_FALSE(ProcessSet{}.intersects(ProcessSet{0}));
  EXPECT_FALSE(ProcessSet{}.intersects(ProcessSet{}));
}

TEST(ProcessSet, SubsetOf) {
  EXPECT_TRUE((ProcessSet{1}).is_subset_of(ProcessSet{0, 1}));
  EXPECT_TRUE(ProcessSet{}.is_subset_of(ProcessSet{}));
  EXPECT_TRUE(ProcessSet{}.is_subset_of(ProcessSet{5}));
  EXPECT_FALSE((ProcessSet{0, 2}).is_subset_of(ProcessSet{0, 1}));
  EXPECT_TRUE((ProcessSet{0, 2}).is_subset_of(ProcessSet{0, 1, 2}));
}

TEST(ProcessSet, MinMax) {
  const ProcessSet s{3, 17, 41};
  EXPECT_EQ(s.min(), 3);
  EXPECT_EQ(s.max(), 41);
  EXPECT_EQ(ProcessSet::single(0).min(), 0);
  EXPECT_EQ(ProcessSet::single(63).max(), 63);
}

TEST(ProcessSet, IterationOrder) {
  const ProcessSet s{9, 1, 33, 5};
  std::vector<Pid> seen;
  for (Pid p : s) seen.push_back(p);
  EXPECT_EQ(seen, (std::vector<Pid>{1, 5, 9, 33}));
}

TEST(ProcessSet, IterationEmpty) {
  int count = 0;
  for (Pid p : ProcessSet{}) {
    (void)p;
    ++count;
  }
  EXPECT_EQ(count, 0);
}

TEST(ProcessSet, ToString) {
  EXPECT_EQ(ProcessSet{}.to_string(), "{}");
  EXPECT_EQ((ProcessSet{0, 2, 5}).to_string(), "{0,2,5}");
}

TEST(ProcessSet, Majority) {
  EXPECT_TRUE(is_majority(ProcessSet{0, 1}, 3));
  EXPECT_FALSE(is_majority(ProcessSet{0}, 3));
  EXPECT_FALSE(is_majority(ProcessSet{0, 1}, 4));
  EXPECT_TRUE(is_majority(ProcessSet{0, 1, 2}, 4));
  EXPECT_FALSE(is_majority(ProcessSet{}, 1));
}

TEST(ProcessSet, Ordering) {
  // Total order (mask order) enables sorted unique containers.
  std::set<ProcessSet> sets;
  sets.insert(ProcessSet{0});
  sets.insert(ProcessSet{1});
  sets.insert(ProcessSet{0});
  EXPECT_EQ(sets.size(), 2u);
}

TEST(ProcessSet, FromMaskRoundTrip) {
  const ProcessSet s{2, 7, 63};
  EXPECT_EQ(ProcessSet::from_mask(s.mask()), s);
}

// Block widths: a high block holds words up to some c, and words past c read
// as zero, so equal values must compare equal whatever their widths.

using Ref = std::bitset<kMaxProcesses>;

/// The infinite-precision order of two bitsets, highest bit first.
std::strong_ordering ref_order(const Ref& a, const Ref& b) {
  for (int i = kMaxProcesses - 1; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] ? std::strong_ordering::greater
                                  : std::strong_ordering::less;
  }
  return std::strong_ordering::equal;
}

/// Every observation of s against its reference r over n processes.
void expect_matches(const ProcessSet& s, const Ref& r, Pid n) {
  ASSERT_EQ(s.size(), static_cast<int>(r.count()));
  ASSERT_EQ(s.empty(), r.none());
  std::vector<Pid> members;
  for (Pid p = 0; p < kMaxProcesses; ++p) {
    if (r[p]) members.push_back(p);
  }
  std::vector<Pid> seen;
  for (Pid p : s) seen.push_back(p);
  ASSERT_EQ(seen, members);
  for (Pid p : {0, 63, 64, 127, 128, n - 1, kMaxProcesses - 1}) {
    ASSERT_EQ(s.contains(p), r[p]) << p;
  }
  if (!members.empty()) {
    ASSERT_EQ(s.min(), members.front());
    ASSERT_EQ(s.max(), members.back());
    for (std::size_t k : {std::size_t{0}, members.size() / 2,
                          members.size() - 1}) {
      ASSERT_EQ(s.nth(static_cast<int>(k)), members[k]);
    }
  }
  ByteWriter w;
  w.process_set(s, n);
  ByteReader rd(w.buffer());
  const auto back = rd.process_set(n);
  ASSERT_TRUE(back.has_value() && rd.done());
  ASSERT_EQ(*back, s);
  ASSERT_EQ(back->size(), s.size());
}

/// Pairwise observations between two sets and their references.
void expect_pair_matches(const ProcessSet& a, const Ref& ra,
                         const ProcessSet& b, const Ref& rb) {
  ASSERT_EQ(a == b, ra == rb);
  ASSERT_EQ(a <=> b, ref_order(ra, rb));
  ASSERT_EQ(a.intersects(b), (ra & rb).any());
  ASSERT_EQ(a.is_subset_of(b), (ra & ~rb).none());
}

TEST(ProcessSet, EqualValuesCompareEqualAcrossBlockWidths) {
  ProcessSet never;  // never had a block
  never.insert(3);
  ProcessSet erased{3, 700, 1000};  // a 15-word block, high members gone
  erased.erase(700);
  erased.erase(1000);
  ProcessSet narrowed = ProcessSet::full(kMaxProcesses);  // narrowed by &=
  narrowed &= ProcessSet{3};
  const ProcessSet also{3, 130};  // a two-word block, narrowed by &
  const ProcessSet anded = also & ProcessSet::full(64);

  const std::vector<const ProcessSet*> sets{&never, &erased, &narrowed,
                                            &anded};
  for (const ProcessSet* a : sets) {
    for (const ProcessSet* b : sets) {
      EXPECT_EQ(*a, *b);
      EXPECT_EQ(*a <=> *b, std::strong_ordering::equal);
      EXPECT_TRUE(a->is_subset_of(*b));
      EXPECT_TRUE(a->intersects(*b));
    }
    EXPECT_EQ(a->size(), 1);
    EXPECT_EQ(a->max(), 3);
    EXPECT_LT(*a, (ProcessSet{64}));
    EXPECT_GT(*a, (ProcessSet{2}));
    for (const Pid n : {64, 65, 128, 129, 1024}) {
      ByteWriter w;
      w.process_set(*a, n);
      ByteWriter want;
      want.process_set(never, n);
      EXPECT_EQ(w.buffer(), want.buffer()) << n;
    }
  }

  // Copies in both directions keep the value, whichever block is wider.
  ProcessSet wide = erased;
  wide = ProcessSet{70};
  EXPECT_EQ(wide, (ProcessSet{70}));
  EXPECT_EQ(wide.max(), 70);
  ProcessSet narrow{70};
  narrow = ProcessSet{70, 1000};
  EXPECT_EQ(narrow.max(), 1000);
  narrow = never;
  EXPECT_EQ(narrow, never);
}

TEST(ProcessSet, RandomOperationsMatchABitsetReference) {
  for (const Pid n : {64, 65, 128, 129, 1024}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const int words = (n + 63) / 64;
    // Skewed toward the ends of the universe, so blocks of every width
    // are made and then emptied again.
    const auto pick = [&]() -> Pid {
      switch (rng.below(3)) {
        case 0:
          return static_cast<Pid>(rng.below(std::min<std::uint64_t>(n, 64)));
        case 1:
          return static_cast<Pid>(n - 1 - static_cast<Pid>(rng.below(4)));
        default:
          return static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
      }
    };
    constexpr std::size_t kPool = 6;
    std::vector<ProcessSet> sets(kPool);
    std::vector<Ref> refs(kPool);
    for (int step = 0; step < 3000; ++step) {
      const std::size_t a = rng.below(kPool);
      const std::size_t b = rng.below(kPool);
      const std::size_t c = rng.below(kPool);
      switch (rng.below(12)) {
        case 0: {
          const Pid p = pick();
          sets[a].insert(p);
          refs[a].set(static_cast<std::size_t>(p));
          break;
        }
        case 1: {
          const Pid p = pick();
          sets[a].erase(p);
          refs[a].reset(static_cast<std::size_t>(p));
          break;
        }
        case 2:
          sets[a] = sets[b] | sets[c];
          refs[a] = refs[b] | refs[c];
          break;
        case 3:
          sets[a] = sets[b] & sets[c];
          refs[a] = refs[b] & refs[c];
          break;
        case 4:
          sets[a] = sets[b] - sets[c];
          refs[a] = refs[b] & ~refs[c];
          break;
        case 5:
          sets[a] |= sets[b];
          refs[a] |= refs[b];
          break;
        case 6:
          sets[a] &= sets[b];
          refs[a] &= refs[b];
          break;
        case 7: {
          const auto m = static_cast<Pid>(
              rng.below(static_cast<std::uint64_t>(n) + 1));
          sets[a] = ProcessSet::full(m);
          refs[a].reset();
          for (Pid p = 0; p < m; ++p) refs[a].set(static_cast<std::size_t>(p));
          break;
        }
        case 8: {
          // Overwrite one word of the reference, then rebuild the set from
          // its words, as the codec does.
          const auto i = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(words)));
          const int bits = std::min(64, n - 64 * i);
          const std::uint64_t valid =
              bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
          const std::uint64_t w = rng.chance(1, 4) ? 0 : rng.next() & valid;
          for (int j = 0; j < 64; ++j) {
            refs[a].set(static_cast<std::size_t>(64 * i + j), (w >> j) & 1U);
          }
          std::uint64_t buf[detail::kSetWords] = {};
          for (int k = 0; k < words; ++k) {
            for (int j = 0; j < 64; ++j) {
              if (refs[a][static_cast<std::size_t>(64 * k + j)]) {
                buf[k] |= std::uint64_t{1} << j;
              }
            }
          }
          sets[a] = ProcessSet::from_words(buf, words);
          break;
        }
        case 9:
          sets[a] = sets[b];  // copy, from a wider or narrower block
          refs[a] = refs[b];
          break;
        case 10: {
          ProcessSet moved = sets[b];
          sets[a] = std::move(moved);
          refs[a] = refs[b];
          break;
        }
        default: {
          const Pid p = pick();
          sets[a] = ProcessSet::single(p);  // move from a fresh block
          refs[a].reset();
          refs[a].set(static_cast<std::size_t>(p));
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(sets[a], refs[a], n))
          << "n=" << n << " step=" << step;
      for (std::size_t o = 0; o < kPool; ++o) {
        ASSERT_NO_FATAL_FAILURE(
            expect_pair_matches(sets[a], refs[a], sets[o], refs[o]))
            << "n=" << n << " step=" << step << " vs " << o;
        ASSERT_NO_FATAL_FAILURE(
            expect_pair_matches(sets[o], refs[o], sets[a], refs[a]))
            << "n=" << n << " step=" << step << " vs " << o;
      }
    }
  }
}

}  // namespace
}  // namespace nucon
