// Unit tests for the distrust machinery (paper Fig. 5, Lemmas 6.20-6.22).
#include "core/quorum_history.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace nucon {
namespace {

TEST(QuorumHistory, StartsEmpty) {
  const QuorumHistory h(4);
  for (Pid q = 0; q < 4; ++q) EXPECT_TRUE(h.of(q).empty());
  EXPECT_EQ(h.size(), 0u);
}

TEST(QuorumHistory, InsertDeduplicates) {
  QuorumHistory h(3);
  h.insert(1, ProcessSet{0, 1});
  h.insert(1, ProcessSet{0, 1});
  h.insert(1, ProcessSet{1, 2});
  EXPECT_EQ(h.of(1).size(), 2u);
  EXPECT_TRUE(h.knows(1, ProcessSet{0, 1}));
  EXPECT_TRUE(h.knows(1, ProcessSet{1, 2}));
  EXPECT_FALSE(h.knows(1, ProcessSet{0, 2}));
  EXPECT_FALSE(h.knows(0, ProcessSet{0, 1}));
}

TEST(QuorumHistory, ImportIsPointwiseUnion) {
  QuorumHistory a(3);
  a.insert(0, ProcessSet{0});
  QuorumHistory b(3);
  b.insert(0, ProcessSet{0, 1});
  b.insert(2, ProcessSet{2});
  a.import(b);
  EXPECT_EQ(a.of(0).size(), 2u);
  EXPECT_TRUE(a.knows(2, ProcessSet{2}));
  // Import is idempotent.
  a.import(b);
  EXPECT_EQ(a.size(), 3u);
}

TEST(QuorumHistory, ConsideredFaultyNeedsOwnQuorumDisjointness) {
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});  // own quorum of process 0
  h.insert(3, ProcessSet{2, 3});  // disjoint from {0,1}
  h.insert(2, ProcessSet{1, 2});  // intersects {0,1}
  const ProcessSet f = h.considered_faulty(0);
  EXPECT_TRUE(f.contains(3));
  EXPECT_FALSE(f.contains(2));
  EXPECT_FALSE(f.contains(0));
}

TEST(QuorumHistory, SelfNeverConsideredFaultyUnderSelfInclusion) {
  // Lemma 6.20: with self-inclusive quorums, p never lands in F_p.
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  h.insert(0, ProcessSet{0, 2});
  h.insert(0, ProcessSet{0, 3});
  EXPECT_FALSE(h.considered_faulty(0).contains(0));
}

TEST(QuorumHistory, DistrustOfConsideredFaulty) {
  // Lemma 6.22: q in F_p implies p distrusts q (witnessed by r = p, which
  // is not in F_p).
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  h.insert(3, ProcessSet{2, 3});
  EXPECT_TRUE(h.considered_faulty(0).contains(3));
  EXPECT_TRUE(h.distrusts(0, 3));
}

TEST(QuorumHistory, DistrustViaThirdParty) {
  // p's own quorums intersect everyone, but two OTHER processes conflict:
  // p distrusts each of them (neither is in F_p, so each witnesses against
  // the other).
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1, 2, 3});  // own quorum: intersects all
  h.insert(1, ProcessSet{0, 1});
  h.insert(2, ProcessSet{2, 3});
  EXPECT_TRUE(h.considered_faulty(0).empty());
  EXPECT_TRUE(h.distrusts(0, 1));
  EXPECT_TRUE(h.distrusts(0, 2));
}

TEST(QuorumHistory, ConsideredFaultyWitnessDoesNotCountForDistrust) {
  // The conflict {2,3} vs {0,1} exists, but 3 is already in F_0 (its
  // quorum misses 0's own), so 3 cannot serve as the trusted witness r
  // against process 1: distrust needs a conflict with some r NOT in F_p.
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  h.insert(3, ProcessSet{2, 3});
  h.insert(1, ProcessSet{0, 1});
  EXPECT_TRUE(h.distrusts(0, 3));
  EXPECT_FALSE(h.distrusts(0, 1));
}

TEST(QuorumHistory, NoDistrustWhenAllIntersect) {
  QuorumHistory h(3);
  h.insert(0, ProcessSet{0, 1});
  h.insert(1, ProcessSet{1, 2});
  h.insert(2, ProcessSet{0, 2});
  for (Pid q = 0; q < 3; ++q) EXPECT_FALSE(h.distrusts(0, q)) << q;
}

TEST(QuorumHistory, DistrustIsMonotone) {
  // Observation 6.10/6.11: quorums are only added, so distrust never
  // reverts.
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  EXPECT_FALSE(h.distrusts(0, 3));
  h.insert(3, ProcessSet{2, 3});
  EXPECT_TRUE(h.distrusts(0, 3));
  h.insert(3, ProcessSet{0, 1, 2, 3});  // a later benign quorum
  EXPECT_TRUE(h.distrusts(0, 3));       // the old conflict still stands
}

TEST(QuorumHistory, EncodeDecodeRoundTrip) {
  QuorumHistory h(5);
  h.insert(0, ProcessSet{0, 1});
  h.insert(3, ProcessSet{2, 3, 4});
  h.insert(3, ProcessSet{3});
  ByteWriter w;
  h.encode(w);
  const Bytes buf = w.take();
  ByteReader r(buf);
  const auto got = QuorumHistory::decode(r);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->n(), 5);
  EXPECT_EQ(got->size(), 3u);
  EXPECT_TRUE(got->knows(0, ProcessSet{0, 1}));
  EXPECT_TRUE(got->knows(3, ProcessSet{2, 3, 4}));
  EXPECT_TRUE(got->knows(3, ProcessSet{3}));
  EXPECT_TRUE(r.done());
}

/// The bytes of `h.encode`.
Bytes encoded(const QuorumHistory& h) {
  ByteWriter w;
  h.encode(w);
  return w.take();
}

/// Appends `v` as 8 little-endian bytes (one set word on the wire).
void le64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(QuorumHistory, EncodeBytesArePinned) {
  // The history wire format (LEAD/PROP payloads, Anuc::save_state): n as a
  // zig-zag varint, then per process the quorum count and each quorum as
  // ceil(n/64) little-endian words, in ProcessSet order (highest word
  // first). Each history is built with out-of-order inserts, a duplicate
  // and an empty quorum.
  {
    QuorumHistory h(3);
    h.insert(2, ProcessSet{0, 2});
    h.insert(2, ProcessSet{1});
    h.insert(0, ProcessSet{0, 1});
    h.insert(2, ProcessSet{0, 2});
    h.insert(1, ProcessSet{});
    const Bytes expected = {
        0x06,                                // n = 3
        0x01, 0x03, 0, 0, 0, 0, 0, 0, 0,     // H[0] = {{0,1}}
        0x01, 0x00, 0, 0, 0, 0, 0, 0, 0,     // H[1] = {{}}
        0x02, 0x02, 0, 0, 0, 0, 0, 0, 0,     // H[2] = {{1},
        0x05, 0, 0, 0, 0, 0, 0, 0,           //         {0,2}}
    };
    EXPECT_EQ(encoded(h), expected);
  }
  {
    QuorumHistory h(64);
    h.insert(63, ProcessSet{63});
    h.insert(63, ProcessSet{0, 62});
    h.insert(0, ProcessSet{});
    h.insert(63, ProcessSet{63});
    h.insert(1, ProcessSet{1, 63});
    Bytes expected = {0x80, 0x01};  // n = 64
    expected.push_back(0x01);       // H[0] = {{}}
    le64(expected, 0);
    expected.push_back(0x01);       // H[1] = {{1,63}}
    le64(expected, 0x8000000000000002);
    expected.insert(expected.end(), 61, 0x00);  // H[2..62] empty
    expected.push_back(0x02);       // H[63] = {{0,62}, {63}}
    le64(expected, 0x4000000000000001);
    le64(expected, 0x8000000000000000);
    EXPECT_EQ(encoded(h), expected);
  }
  {
    // Past one word the order is decided by the high word: {0,1,2} sorts
    // before {64} although its low word is larger.
    QuorumHistory h(65);
    h.insert(0, ProcessSet{63, 64});
    h.insert(0, ProcessSet{64});
    h.insert(0, ProcessSet{0, 1, 2});
    h.insert(0, ProcessSet{64});
    h.insert(64, ProcessSet{});
    Bytes expected = {0x82, 0x01};  // n = 65
    expected.push_back(0x03);       // H[0] = {{0,1,2}, {64}, {63,64}}
    le64(expected, 0x7);
    le64(expected, 0);
    le64(expected, 0);
    le64(expected, 1);
    le64(expected, 0x8000000000000000);
    le64(expected, 1);
    expected.insert(expected.end(), 63, 0x00);  // H[1..63] empty
    expected.push_back(0x01);       // H[64] = {{}}
    le64(expected, 0);
    le64(expected, 0);
    EXPECT_EQ(encoded(h), expected);
  }
  {
    QuorumHistory h(128);
    h.insert(127, ProcessSet{127});
    h.insert(127, ProcessSet{0, 64});
    h.insert(127, ProcessSet{0});
    h.insert(127, ProcessSet{});
    h.insert(127, ProcessSet{0, 64});
    h.insert(0, ProcessSet{64, 127});
    Bytes expected = {0x80, 0x02};  // n = 128
    expected.push_back(0x01);       // H[0] = {{64,127}}
    le64(expected, 0);
    le64(expected, 0x8000000000000001);
    expected.insert(expected.end(), 126, 0x00);  // H[1..126] empty
    expected.push_back(0x04);       // H[127] = {{}, {0}, {0,64}, {127}}
    le64(expected, 0);
    le64(expected, 0);
    le64(expected, 1);
    le64(expected, 0);
    le64(expected, 1);
    le64(expected, 1);
    le64(expected, 0);
    le64(expected, 0x8000000000000000);
    EXPECT_EQ(encoded(h), expected);
  }
}

TEST(QuorumHistory, RoundTripAtProcessCap) {
  // n = kMaxProcesses is one past the largest pid; the decoder must read
  // it back although ByteReader::pid() would reject it.
  QuorumHistory h(kMaxProcesses);
  h.insert(kMaxProcesses - 1, ProcessSet{0, kMaxProcesses - 1});
  h.insert(0, ProcessSet::full(kMaxProcesses));
  const Bytes bytes = encoded(h);
  ByteReader r(bytes);
  const auto got = QuorumHistory::decode(r);
  ASSERT_TRUE(got);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(got->n(), kMaxProcesses);
  EXPECT_EQ(got->size(), 2u);
  EXPECT_TRUE(got->knows(kMaxProcesses - 1, ProcessSet{0, kMaxProcesses - 1}));
  EXPECT_TRUE(got->knows(0, ProcessSet::full(kMaxProcesses)));
  EXPECT_EQ(encoded(*got), bytes);
}

TEST(QuorumHistory, DecodeRejectsTruncated) {
  QuorumHistory h(3);
  h.insert(0, ProcessSet{0});
  ByteWriter w;
  h.encode(w);
  Bytes buf = w.take();
  buf.pop_back();
  ByteReader r(buf);
  EXPECT_FALSE(QuorumHistory::decode(r));
}

TEST(QuorumHistory, EmptyQuorumConflictsWithEverything) {
  // An empty quorum in someone's history is disjoint from every quorum,
  // including one's own: its owner is considered faulty.
  QuorumHistory h(3);
  h.insert(0, ProcessSet{0});
  h.insert(1, ProcessSet{});
  EXPECT_TRUE(h.considered_faulty(0).contains(1));
  EXPECT_TRUE(h.distrusts(0, 1));
}

// ---------------------------------------------------------------------------
// Hostile input for the decoder.

/// A history of n processes whose H[0] holds one row with `members` set,
/// the row's words written as given (bits at or past n allowed).
Bytes one_row_history(Pid n, std::initializer_list<Pid> members) {
  std::vector<std::uint64_t> row(static_cast<std::size_t>((n + 63) / 64), 0);
  for (const Pid p : members) {
    row[static_cast<std::size_t>(p / 64)] |= std::uint64_t{1} << (p % 64);
  }
  ByteWriter w;
  w.pid(n);
  w.uvarint(1);
  for (const std::uint64_t word : row) w.u64(word);
  for (Pid q = 1; q < n; ++q) w.uvarint(0);
  return w.take();
}

std::optional<QuorumHistory> decode_all(const Bytes& bytes) {
  ByteReader r(bytes);
  auto h = QuorumHistory::decode(r);
  if (h && !r.done()) return std::nullopt;
  return h;
}

TEST(QuorumHistoryDecode, RejectsMembersAtOrPastNInTheTopWord) {
  for (const Pid n : {65, 127, 1000}) {
    SCOPED_TRACE(n);
    const Pid top_bit = 64 * ((n + 63) / 64) - 1;  // last bit of the top word
    const auto valid = decode_all(one_row_history(n, {0, n - 1}));
    ASSERT_TRUE(valid);
    EXPECT_TRUE(valid->knows(0, ProcessSet{0, n - 1}));
    EXPECT_FALSE(decode_all(one_row_history(n, {n})));
    EXPECT_FALSE(decode_all(one_row_history(n, {0, top_bit})));
  }
}

TEST(QuorumHistoryDecode, RejectsEveryTruncation) {
  // The last row is H[n-1]'s, so cuts land in mid-word, on a word
  // boundary inside a row, and in the counts.
  for (const Pid n : {3, 65, 128}) {
    SCOPED_TRACE(n);
    QuorumHistory h(n);
    h.insert(0, ProcessSet{0, n - 1});
    h.insert(n - 1, ProcessSet{n - 1});
    h.insert(n - 1, ProcessSet{});
    const Bytes full = encoded(h);
    ASSERT_TRUE(decode_all(full));
    for (std::size_t len = 0; len < full.size(); ++len) {
      const Bytes cut(full.begin(), full.begin() + static_cast<long>(len));
      EXPECT_FALSE(decode_all(cut)) << len;
    }
  }
}

TEST(QuorumHistoryDecode, CountFarBeyondTheInputFailsWithoutReserving) {
  // Reserving the declared count would throw (length_error or bad_alloc)
  // before the read failed; the reservation is clamped to what the input
  // can hold.
  for (const Pid n : {3, 1024}) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 40, ~std::uint64_t{0} >> 1, ~std::uint64_t{0}}) {
      ByteWriter w;
      w.pid(n);
      w.uvarint(count);
      for (int i = 0; i < (n + 63) / 64; ++i) w.u64(1);
      const Bytes bytes = w.take();
      EXPECT_NO_THROW(EXPECT_FALSE(decode_all(bytes))) << n << " " << count;
    }
  }
}

TEST(QuorumHistoryDecode, UnsortedAndDuplicateRowsDecodeToTheSortedHistory) {
  for (const Pid n : {3, 65, 128}) {
    SCOPED_TRACE(n);
    const std::vector<ProcessSet> descending = {
        ProcessSet{n - 1}, ProcessSet{0, 1}, ProcessSet{1}, ProcessSet{}};
    QuorumHistory sorted(n);
    for (const ProcessSet& s : descending) sorted.insert(n - 1, s);
    ByteWriter w;
    w.pid(n);
    for (Pid q = 0; q < n - 1; ++q) w.uvarint(0);
    w.uvarint(descending.size() + 2);
    for (const ProcessSet& s : descending) w.process_set(s, n);
    w.process_set(descending[1], n);  // a duplicate after smaller rows
    w.process_set(descending[0], n);  // and one of the last row
    const auto got = decode_all(w.take());
    ASSERT_TRUE(got);
    EXPECT_EQ(got->size(), sorted.size());
    EXPECT_EQ(got->of(n - 1), sorted.of(n - 1));
    EXPECT_EQ(encoded(*got), encoded(sorted));
  }
}

TEST(QuorumHistoryDecode, RejectsOutOfRangeN) {
  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{-1},
                               std::int64_t{kMaxProcesses} + 1,
                               std::int64_t{1} << 40}) {
    ByteWriter w;
    w.svarint(n);
    w.uvarint(0);
    EXPECT_FALSE(decode_all(w.take())) << n;
  }
}

// ---------------------------------------------------------------------------
// Row storage against a reference model, checked in every build type (the
// !NDEBUG cross-check covers only the cached queries, and only in Debug).

/// H as one std::set<ProcessSet> per process: ProcessSet's own order, and
/// ByteWriter::process_set for the bytes.
struct ModelHistory {
  explicit ModelHistory(Pid n) : n(n), sets(static_cast<std::size_t>(n)) {}

  void import(const ModelHistory& other) {
    for (std::size_t q = 0; q < sets.size(); ++q) {
      sets[q].insert(other.sets[q].begin(), other.sets[q].end());
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : sets) total += s.size();
    return total;
  }

  /// The wire bytes; with `shuffle`, each process's quorums come in a
  /// random order with one of them twice.
  [[nodiscard]] Bytes encode(Rng* shuffle = nullptr) const {
    ByteWriter w;
    w.pid(n);
    for (const auto& s : sets) {
      std::vector<ProcessSet> out(s.begin(), s.end());
      if (shuffle != nullptr && !out.empty()) {
        out.push_back(out[shuffle->below(out.size())]);  // a duplicate
        for (std::size_t i = out.size() - 1; i > 0; --i) {
          std::swap(out[i], out[shuffle->below(i + 1)]);
        }
      }
      w.uvarint(out.size());
      for (const ProcessSet& q : out) w.process_set(q, n);
    }
    return w.take();
  }

  Pid n;
  std::vector<std::set<ProcessSet>> sets;
};

/// Quorums that make duplicates, empty sets, disjoint pairs and rows that
/// differ only below their top word common.
ProcessSet draw_quorum(Rng& rng, Pid n) {
  const auto any = [&] { return static_cast<Pid>(rng.below(n)); };
  switch (rng.below(7)) {
    case 0:
      return {};
    case 1:
      return ProcessSet{n - 1};
    case 2:
      return ProcessSet{n - 1, any()};
    case 3:
      return ProcessSet{static_cast<Pid>(rng.below(std::min<Pid>(n, 64)))};
    case 4:
      return ProcessSet{0, n / 2};
    default:
      return rng.pick_subset(ProcessSet::full(n),
                             1 + static_cast<int>(rng.below(n)));
  }
}

/// Checks `h` against `m` on the processes in `procs`, and the cached
/// queries against their *_slow references.
void expect_matches_model(const QuorumHistory& h, const ModelHistory& m,
                          const std::vector<Pid>& procs, Rng& rng) {
  ASSERT_EQ(h.size(), m.size());
  EXPECT_EQ(encoded(h), m.encode());
  for (const Pid q : procs) {
    const auto& want = m.sets[static_cast<std::size_t>(q)];
    EXPECT_EQ(h.of(q), std::vector<ProcessSet>(want.begin(), want.end()))
        << q;
    for (const ProcessSet& s : want) EXPECT_TRUE(h.knows(q, s)) << q;
    for (int i = 0; i < 4; ++i) {
      const ProcessSet probe = draw_quorum(rng, m.n);
      EXPECT_EQ(h.knows(q, probe), want.contains(probe)) << q;
    }
    EXPECT_EQ(h.considered_faulty(q), h.considered_faulty_slow(q)) << q;
    for (const Pid r : procs) {
      EXPECT_EQ(h.distrusts(q, r), h.distrusts_slow(q, r)) << q << "," << r;
    }
  }
}

TEST(QuorumHistoryRows, MatchASetModelUnderRandomOperations) {
  for (const Pid n : {2, 12, 63, 64, 65, 128, 1000, 1024}) {
    SCOPED_TRACE(n);
    Rng rng(0x5EED + static_cast<std::uint64_t>(n));
    // Owners come from a few fixed processes, so histories hold several
    // quorums per process.
    std::vector<Pid> procs;
    for (const Pid p : {0, 1, n / 2, n - 1}) {
      if (std::find(procs.begin(), procs.end(), p) == procs.end()) {
        procs.push_back(p);
      }
    }
    QuorumHistory a(n);
    QuorumHistory b(n);
    ModelHistory ma(n);
    ModelHistory mb(n);
    for (int op = 0; op < 120; ++op) {
      const auto kind = rng.below(10);
      const bool into_a = rng.chance(1, 2);
      QuorumHistory& h = into_a ? a : b;
      ModelHistory& m = into_a ? ma : mb;
      if (kind < 6) {
        const Pid owner = procs[rng.below(procs.size())];
        const ProcessSet quorum = draw_quorum(rng, n);
        h.insert(owner, quorum);
        m.sets[static_cast<std::size_t>(owner)].insert(quorum);
      } else if (kind < 8) {
        h.import(into_a ? b : a);
        m.import(into_a ? mb : ma);
      } else {
        // Decode: the history's own bytes, or the model's shuffled and
        // duplicated; both must decode to the model.
        const Bytes bytes = kind == 8 ? encoded(h) : m.encode(&rng);
        auto decoded = decode_all(bytes);
        ASSERT_TRUE(decoded);
        h = std::move(*decoded);
      }
      if (op % 8 == 7) {
        expect_matches_model(a, ma, procs, rng);
        expect_matches_model(b, mb, procs, rng);
        if (testing::Test::HasFailure()) return;
      }
    }
    expect_matches_model(a, ma, procs, rng);
    expect_matches_model(b, mb, procs, rng);
  }
}

}  // namespace
}  // namespace nucon
