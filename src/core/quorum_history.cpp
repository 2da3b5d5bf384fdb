#include "core/quorum_history.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace nucon {
namespace {

using Word = std::uint64_t;

/// Room for one row at any n. Only its first w words are ever
/// written or read; it is left unfilled because zeroing all 16 words on
/// every insert costs more than the search itself at n <= 64.
using RowBuf = std::array<Word, detail::kSetWords>;

/// Three-way comparison of two rows in ProcessSet order: the highest word
/// decides first.
int compare_rows(const Word* a, const Word* b, std::size_t w) {
  for (std::size_t i = w; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

bool rows_intersect(const Word* a, const Word* b, std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// Index of the first of `count` sorted rows not less than `key`.
std::size_t lower_row(const Word* rows, std::size_t count, const Word* key,
                      std::size_t w) {
  std::size_t lo = 0;
  while (count > 0) {
    const std::size_t half = count / 2;
    if (compare_rows(rows + (lo + half) * w, key, w) < 0) {
      lo += half + 1;
      count -= half + 1;
    } else {
      count = half;
    }
  }
  return lo;
}

void to_row(const ProcessSet& s, std::size_t w, RowBuf& row) {
  for (std::size_t i = 0; i < w; ++i) row[i] = s.word(static_cast<int>(i));
}

ProcessSet from_row(const Word* row, std::size_t w) {
  ProcessSet s;
  for (std::size_t i = 0; i < w; ++i) s.set_word(static_cast<int>(i), row[i]);
  return s;
}

}  // namespace

QuorumHistory::QuorumHistory(Pid n)
    : n_(n),
      w_(static_cast<std::size_t>(n + 63) / 64),
      rows_(static_cast<std::size_t>(n)) {
  assert(n >= 1 && n <= kMaxProcesses);
}

QuorumHistory::QuorumHistory(const QuorumHistory& other)
    : n_(other.n_),
      w_(other.w_),
      rows_(other.rows_),
      generation_(other.generation_) {
  if (other.cache_) cache_ = std::make_unique<Cache>(*other.cache_);
}

QuorumHistory& QuorumHistory::operator=(const QuorumHistory& other) {
  if (this == &other) return *this;
  n_ = other.n_;
  w_ = other.w_;
  rows_ = other.rows_;
  generation_ = other.generation_;
  cache_ = other.cache_ ? std::make_unique<Cache>(*other.cache_) : nullptr;
  return *this;
}

std::size_t QuorumHistory::count(Pid q) const {
  const std::size_t words = rows_[static_cast<std::size_t>(q)].size();
  // One word per row up to 64 processes; skipping the division there keeps
  // the small-n paths at their old cost.
  return w_ == 1 ? words : words / w_;
}

std::vector<ProcessSet> QuorumHistory::of(Pid q) const {
  const auto& rows = rows_[static_cast<std::size_t>(q)];
  std::vector<ProcessSet> out;
  out.reserve(count(q));
  for (std::size_t i = 0; i < rows.size(); i += w_) {
    out.push_back(from_row(rows.data() + i, w_));
  }
  return out;
}

void QuorumHistory::insert_row(Pid q, const Word* row) {
  auto& rows = rows_[static_cast<std::size_t>(q)];
  const std::size_t at = lower_row(rows.data(), count(q), row, w_) * w_;
  if (at == rows.size() || compare_rows(&rows[at], row, w_) != 0) {
    rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(at), row, row + w_);
    ++generation_;
  }
}

void QuorumHistory::insert(Pid q, const ProcessSet& quorum) {
  assert(q >= 0 && q < n_);
  assert(quorum.empty() || quorum.max() < n_);
  RowBuf row;
  to_row(quorum, w_, row);
  insert_row(q, row.data());
}

void QuorumHistory::import(const QuorumHistory& other) {
  assert(other.n_ == n_);
  const std::size_t w = w_;
  for (Pid q = 0; q < n_; ++q) {
    const auto& src = other.rows_[static_cast<std::size_t>(q)];
    if (src.empty()) continue;
    auto& dst = rows_[static_cast<std::size_t>(q)];
    // Both sides are sorted and deduplicated, so one two-pointer walk
    // detects whether the import adds anything; most imports arrive after
    // the sender's history is already a subset of ours and cost O(s + d)
    // comparisons, no inserts and no generation bump.
    std::size_t i = 0;
    std::size_t missing = 0;
    for (std::size_t j = 0; j < src.size(); j += w) {
      int order = 1;  // dst row i against src row j
      while (i < dst.size() &&
             (order = compare_rows(&dst[i], &src[j], w)) < 0) {
        i += w;
      }
      if (i == dst.size() || order > 0) ++missing;
    }
    if (missing == 0) continue;
    // Merge from the back into the grown array. Exactly `missing` rows are
    // new, so once they are all placed, dst's unmoved rows are in place.
    std::size_t d = dst.size();
    std::size_t s = src.size();
    dst.resize(d + missing * w);
    std::size_t out = dst.size();
    while (out > d) {
      const int order =
          d == 0 ? -1 : compare_rows(&dst[d - w], &src[s - w], w);
      out -= w;
      if (order > 0) {
        d -= w;
        std::copy_n(&dst[d], w, &dst[out]);
      } else {
        s -= w;
        if (order == 0) d -= w;
        std::copy_n(&src[s], w, &dst[out]);
      }
    }
    ++generation_;
  }
}

bool QuorumHistory::knows(Pid q, const ProcessSet& quorum) const {
  assert(q >= 0 && q < n_);
  if (!quorum.empty() && quorum.max() >= n_) return false;
  RowBuf key;
  to_row(quorum, w_, key);
  const auto& rows = rows_[static_cast<std::size_t>(q)];
  const std::size_t at = lower_row(rows.data(), count(q), key.data(), w_);
  return at < count(q) && compare_rows(&rows[at * w_], key.data(), w_) == 0;
}

std::uint32_t QuorumHistory::intern(Cache& c, const Word* quorum) const {
  const std::size_t w = w_;
  const auto row_of = [&c, w](std::uint32_t id) {
    return c.rows.data() + id * w;
  };
  const auto at = std::lower_bound(
      c.index.begin(), c.index.end(), quorum,
      [&](std::uint32_t id, const Word* key) {
        return compare_rows(row_of(id), key, w) < 0;
      });
  if (at != c.index.end() && compare_rows(row_of(*at), quorum, w) == 0) {
    return *at;
  }
  const auto id = static_cast<std::uint32_t>(c.entries.size());
  Entry e;
  for (std::uint32_t other = 0; other < id; ++other) {
    if (!rows_intersect(row_of(other), quorum, w)) {
      e.disjoint_entries.push_back(other);
      e.disjoint_owners |= c.entries[other].owners;
      c.entries[other].disjoint_entries.push_back(id);
    }
  }
  // An empty quorum is disjoint from everything, including itself: its own
  // owners must land in its disjoint_owners when they are folded in.
  if (!rows_intersect(quorum, quorum, w)) e.disjoint_entries.push_back(id);
  c.entries.push_back(std::move(e));
  c.index.insert(at, id);
  c.rows.insert(c.rows.end(), quorum, quorum + w);
  return id;
}

QuorumHistory::Cache& QuorumHistory::cache() const {
  if (!cache_) {
    cache_ = std::make_unique<Cache>();
    cache_->owned.resize(static_cast<std::size_t>(n_));
    cache_->faulty.resize(static_cast<std::size_t>(n_));
    cache_->synced.resize(static_cast<std::size_t>(n_), 0);
  }
  Cache& c = *cache_;
  if (c.generation == generation_) return c;
  const std::size_t w = w_;
  for (Pid q = 0; q < n_; ++q) {
    const auto& rows = rows_[static_cast<std::size_t>(q)];
    auto& owned = c.owned[static_cast<std::size_t>(q)];
    if (c.synced[static_cast<std::size_t>(q)] == rows.size()) continue;
    // Merge walk: rows and owned are both sorted by quorum value, and
    // folded quorums never disappear from rows, so every owned id finds
    // its match and the leftovers are exactly the new quorums.
    std::vector<std::uint32_t> merged;
    merged.reserve(count(q));
    std::size_t j = 0;
    for (std::size_t i = 0; i < rows.size(); i += w) {
      const Word* quorum = rows.data() + i;
      if (j < owned.size() &&
          compare_rows(c.rows.data() + owned[j] * w, quorum, w) == 0) {
        merged.push_back(owned[j]);
        ++j;
        continue;
      }
      const std::uint32_t id = intern(c, quorum);
      Entry& e = c.entries[id];
      if (!e.owners.contains(q)) {
        e.owners.insert(q);
        for (const std::uint32_t d : e.disjoint_entries) {
          Entry& de = c.entries[d];
          de.disjoint_owners.insert(q);
          // d's quorum gained a disjoint owner, so every owner of d now
          // considers q faulty. The self-disjoint empty quorum works out:
          // q is already in e.owners, so F_q picks up q itself.
          for (const Pid p : de.owners) {
            c.faulty[static_cast<std::size_t>(p)].insert(q);
          }
        }
        c.faulty[static_cast<std::size_t>(q)] |= e.disjoint_owners;
      }
      merged.push_back(id);
    }
    assert(j == owned.size());
    owned = std::move(merged);
    c.synced[static_cast<std::size_t>(q)] = rows.size();
  }
  c.generation = generation_;
  return c;
}

ProcessSet QuorumHistory::considered_faulty(Pid self) const {
  const Cache& c = cache();
  const ProcessSet out = c.faulty[static_cast<std::size_t>(self)];
  assert(out == considered_faulty_slow(self));
  return out;
}

bool QuorumHistory::distrusts(Pid self, Pid q) const {
  const Cache& c = cache();
  // Union commutes with subtracting the fixed F_self, so "some entry of q
  // has a disjoint owner outside F_self" is exactly "F_q is not a subset
  // of F_self" — one word-wise test per call, no per-entry walk.
  const bool out = !c.faulty[static_cast<std::size_t>(q)].is_subset_of(
      c.faulty[static_cast<std::size_t>(self)]);
  assert(out == distrusts_slow(self, q));
  return out;
}

ProcessSet QuorumHistory::considered_faulty_slow(Pid self) const {
  ProcessSet out;
  const auto mine = of(self);
  for (Pid q = 0; q < n_; ++q) {
    for (const ProcessSet& quorum : of(q)) {
      for (const ProcessSet& own : mine) {
        if (!quorum.intersects(own)) {
          out.insert(q);
          break;
        }
      }
      if (out.contains(q)) break;
    }
  }
  return out;
}

bool QuorumHistory::distrusts_slow(Pid self, Pid q) const {
  const ProcessSet faulty = considered_faulty_slow(self);
  const auto of_q = of(q);
  for (Pid r = 0; r < n_; ++r) {
    if (faulty.contains(r)) continue;
    for (const ProcessSet& rq : of(r)) {
      for (const ProcessSet& qq : of_q) {
        if (!qq.intersects(rq)) return true;
      }
    }
  }
  return false;
}

std::size_t QuorumHistory::size() const {
  std::size_t words = 0;
  for (const auto& rows : rows_) words += rows.size();
  return w_ == 1 ? words : words / w_;
}

void QuorumHistory::encode(ByteWriter& w) const {
  // Rows hold ProcessSet::word's words in order, so this writes what
  // ByteWriter::process_set(quorum, n) writes for each quorum.
  w.pid(n_);
  for (Pid q = 0; q < n_; ++q) {
    w.uvarint(count(q));
    for (const Word word : rows_[static_cast<std::size_t>(q)]) w.u64(word);
  }
}

std::optional<QuorumHistory> QuorumHistory::decode(ByteReader& r) {
  // n is written as a pid, but n = kMaxProcesses is one past the largest
  // pid that ByteReader::pid() accepts.
  const auto wire_n = r.svarint();
  if (!wire_n || *wire_n < 1 || *wire_n > kMaxProcesses) return std::nullopt;
  const auto n = static_cast<Pid>(*wire_n);
  QuorumHistory h(n);
  const std::size_t w = h.w_;
  const std::uint64_t row_bytes = 8 * w;
  // Bits of the top word at or past n; every lower word lies below n.
  const Word past_n =
      n % 64 == 0 ? 0 : ~((Word{1} << static_cast<unsigned>(n % 64)) - 1);
  RowBuf row;
  for (Pid q = 0; q < n; ++q) {
    const auto len = r.uvarint();
    if (!len) return std::nullopt;
    auto& rows = h.rows_[static_cast<std::size_t>(q)];
    // A row takes 8w bytes of input, so clamping the reservation to the
    // rows the remaining input can hold keeps a malicious count from
    // pre-allocating unbounded memory before the read fails.
    const std::uint64_t fit =
        std::min<std::uint64_t>(*len, r.remaining() / row_bytes);
    rows.reserve(static_cast<std::size_t>(fit) * w);
    for (std::uint64_t i = 0; i < *len; ++i) {
      for (std::size_t k = 0; k < w; ++k) {
        const auto word = r.u64();
        if (!word) return std::nullopt;
        row[k] = *word;
      }
      if ((row[w - 1] & past_n) != 0) return std::nullopt;
      // Our encoder writes each process's quorums sorted and deduplicated,
      // so appends dominate; the insert fallback keeps arbitrary (fuzzed,
      // hand-built) orderings decoding to the identical history.
      const int order =
          rows.empty() ? 1
                       : compare_rows(row.data(), &rows[rows.size() - w], w);
      if (order > 0) {
        rows.insert(rows.end(), row.data(), row.data() + w);
        ++h.generation_;
      } else if (order < 0) {
        h.insert_row(q, row.data());
      }
    }
  }
  return h;
}

}  // namespace nucon
