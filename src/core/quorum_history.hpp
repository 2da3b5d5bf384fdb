// Quorum histories and the distrust machinery of A_nuc (paper Fig. 5).
//
// H_p is an array indexed by process: H_p[q] is the set of quorums of q
// that p knows about (its own via get_quorum, others' via SAW messages and
// the histories piggybacked on LEAD/PROP messages).
//
//   F_p          = processes q' with a known quorum disjoint from one of
//                  p's own quorums — p "considers q' faulty" (line 52);
//   distrusts(q) = there are r not in F_p and known quorums Q of q and R
//                  of r that are disjoint (line 53).
//
// Quorums are only ever added (Observation 6.10), so F_p is monotone
// (Observation 6.11). That monotonicity is what makes the queries cheap to
// maintain incrementally: the history keeps a lazily synced cache of
// distinct quorum values ("entries"), each carrying its owner set and the
// set of processes owning a quorum disjoint from it. A new quorum is
// interned once (one disjointness scan over the distinct values); membership
// and distrust queries then read the precomputed owner/disjoint-owner sets
// instead of re-running the triple loop over all (q, quorum, own) triples on
// every A_nuc step. Note distrust itself is NOT monotone in the witness — r
// may later join F_p — so the cache stores the disjointness *relation*, not
// boolean distrust results; queries subtract the current F_p at read time.
//
// Storage: every quorum value the history holds, in H and in the cache's
// entries, is a *row* of w = ceil(n/64) words in a contiguous array, word i
// holding pids 64i .. 64i+63 (ProcessSet::word's layout). Rows sort in
// ProcessSet order, highest word first, so the encoding and the cache's
// entry ids are those of a sorted ProcessSet list. Above 64 processes a
// ProcessSet keeps its upper words in a heap block of their own, so a walk
// over a list of them dereferences one block per quorum; a walk over rows
// reads consecutive words. Quorums are ProcessSets only at the interface
// (the owner sets and F_p, one per entry or process, stay ProcessSets).
//
// Debug builds (!NDEBUG) cross-check every cached query against the
// recompute-from-scratch reference (considered_faulty_slow / distrusts_slow).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "util/bytes.hpp"
#include "util/process_set.hpp"

namespace nucon {

class QuorumHistory {
 public:
  explicit QuorumHistory(Pid n);

  QuorumHistory(const QuorumHistory& other);
  QuorumHistory& operator=(const QuorumHistory& other);
  QuorumHistory(QuorumHistory&&) noexcept = default;
  QuorumHistory& operator=(QuorumHistory&&) noexcept = default;
  ~QuorumHistory() = default;

  [[nodiscard]] Pid n() const { return n_; }

  /// H[q] <- H[q] u {quorum}. Every member of quorum is below n.
  void insert(Pid q, const ProcessSet& quorum);

  /// import_history (Fig. 5 lines 44-46): pointwise union.
  void import(const QuorumHistory& other);

  /// The known quorums of q, in ProcessSet order.
  [[nodiscard]] std::vector<ProcessSet> of(Pid q) const;

  [[nodiscard]] bool knows(Pid q, const ProcessSet& quorum) const;

  /// F_p for p = self (Fig. 5 line 52).
  [[nodiscard]] ProcessSet considered_faulty(Pid self) const;

  /// distrusts(q) for p = self (Fig. 5 lines 51-53).
  [[nodiscard]] bool distrusts(Pid self, Pid q) const;

  /// Recompute-from-scratch reference implementations of the two queries
  /// above. The cached versions must agree with these on every history (the
  /// scale-label equivalence oracle and the !NDEBUG cross-check both pin
  /// it); they are the pre-cache triple loops, kept verbatim.
  [[nodiscard]] ProcessSet considered_faulty_slow(Pid self) const;
  [[nodiscard]] bool distrusts_slow(Pid self, Pid q) const;

  /// Total number of (process, quorum) entries.
  [[nodiscard]] std::size_t size() const;

  void encode(ByteWriter& w) const;
  [[nodiscard]] static std::optional<QuorumHistory> decode(ByteReader& r);

 private:
  using Word = std::uint64_t;

  /// One distinct quorum value across the whole history; its row is
  /// Cache::rows at the entry's id.
  struct Entry {
    /// Processes q with quorum in H[q].
    ProcessSet owners;
    /// Processes owning some known quorum disjoint from this one (an empty
    /// quorum counts as disjoint from itself).
    ProcessSet disjoint_owners;
    /// Ids of entries whose quorum is disjoint from this one.
    std::vector<std::uint32_t> disjoint_entries;
  };

  struct Cache {
    std::vector<Entry> entries;
    /// Entry id i's quorum is the row at words [i*w, (i+1)*w).
    std::vector<Word> rows;
    /// Every entry id, sorted by its row: the exact quorum -> id index.
    std::vector<std::uint32_t> index;
    /// Per process: owned entry ids, sorted by quorum value (mirrors the
    /// order of rows_[q]).
    std::vector<std::vector<std::uint32_t>> owned;
    /// Per process p: F_p, the union of disjoint_owners over p's owned
    /// entries, maintained eagerly as ownerships fold in. Makes
    /// considered_faulty a copy and distrusts a subset test — the identity
    /// is that union commutes with subtracting the fixed F_self, so
    /// "some owned entry has a disjoint owner outside F_self" collapses to
    /// "F_q is not a subset of F_self".
    std::vector<ProcessSet> faulty;
    /// Per process: how many words of rows_[q] are folded into the cache.
    std::vector<std::size_t> synced;
    /// Value of generation_ the cache was last synced at.
    std::uint64_t generation = 0;
  };

  /// Brings the cache up to date with rows_ and returns it. For processes
  /// whose quorum count is unchanged this skips immediately; otherwise it
  /// merges the sorted rows against the sorted owned-entry list and
  /// interns only the new values (Observation 6.10: nothing is ever
  /// removed, so folded quorums are always still present).
  Cache& cache() const;

  std::uint32_t intern(Cache& c, const Word* quorum) const;

  /// H[q] <- H[q] u {row}.
  void insert_row(Pid q, const Word* row);

  /// Number of quorums in H[q].
  [[nodiscard]] std::size_t count(Pid q) const;

  Pid n_;
  /// Words per row, ceil(n/64).
  std::size_t w_;
  /// rows_[q] = known quorums of q as rows, sorted and deduplicated.
  std::vector<std::vector<Word>> rows_;
  /// Bumped on every successful insert; cheap cache-freshness check.
  std::uint64_t generation_ = 0;
  mutable std::unique_ptr<Cache> cache_;
};

}  // namespace nucon
