// ProcessSet: a value-type set of process identifiers, the universal currency
// of quorum-based reasoning in this library.
//
// The paper's system has n processes Pi = {0, .., n-1}; a set of processes is
// a bitset so that the hot operations of the distrust machinery (intersection
// tests between quorums in quorum histories) are word-wise AND instructions.
//
// Storage layout: one inline 64-bit word (`lo_`, pids 0..63) plus an optional
// heap block (`hi_`) of kHiWords words for pids 64..kMaxProcesses-1. The block
// has a fixed size, so it never reallocates and a null `hi_` means "all high
// words are zero". Runs with n <= 64 — every paper experiment — never touch
// the heap: the fast paths are a single predictable `hi_ == nullptr` test
// away from the old one-word code. A high block belongs to its set: it is
// allocated with the set and freed with it, so no run leaves blocks behind.
#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace nucon {

/// Process identifier. Processes are numbered 0 .. n-1.
using Pid = std::int32_t;

/// Maximum number of processes supported by the bitset representation.
inline constexpr Pid kMaxProcesses = 1024;

namespace detail {

/// 64-bit words per set, and per heap block (all but the inline word).
inline constexpr int kSetWords = kMaxProcesses / 64;
inline constexpr int kHiWords = kSetWords - 1;

}  // namespace detail

/// An immutable-style value type holding a set of process ids.
class ProcessSet {
 public:
  constexpr ProcessSet() = default;

  constexpr ProcessSet(std::initializer_list<Pid> pids) {
    for (Pid p : pids) insert(p);
  }

  constexpr ProcessSet(const ProcessSet& o) : lo_(o.lo_) {
    if (o.hi_ != nullptr) {
      hi_ = alloc_hi();
      for (int i = 0; i < detail::kHiWords; ++i) hi_[i] = o.hi_[i];
    }
  }

  constexpr ProcessSet(ProcessSet&& o) noexcept : lo_(o.lo_), hi_(o.hi_) {
    o.lo_ = 0;
    o.hi_ = nullptr;
  }

  constexpr ProcessSet& operator=(const ProcessSet& o) {
    if (this == &o) return *this;
    lo_ = o.lo_;
    if (o.hi_ == nullptr) {
      drop_hi();
    } else {
      if (hi_ == nullptr) hi_ = alloc_hi();
      for (int i = 0; i < detail::kHiWords; ++i) hi_[i] = o.hi_[i];
    }
    return *this;
  }

  constexpr ProcessSet& operator=(ProcessSet&& o) noexcept {
    if (this == &o) return *this;
    drop_hi();
    lo_ = o.lo_;
    hi_ = o.hi_;
    o.lo_ = 0;
    o.hi_ = nullptr;
    return *this;
  }

  constexpr ~ProcessSet() { drop_hi(); }

  /// The full set {0, .., n-1}.
  [[nodiscard]] static constexpr ProcessSet full(Pid n) {
    assert(n >= 0 && n <= kMaxProcesses);
    ProcessSet s;
    if (n <= 64) {
      s.lo_ = (n == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
      return s;
    }
    s.lo_ = ~std::uint64_t{0};
    s.hi_ = s.alloc_hi();
    const int full_words = n / 64 - 1;  // full high words
    for (int i = 0; i < full_words; ++i) s.hi_[i] = ~std::uint64_t{0};
    if (n % 64 != 0) {
      s.hi_[full_words] = (std::uint64_t{1} << (n % 64)) - 1;
    }
    return s;
  }

  /// The singleton {p}.
  [[nodiscard]] static constexpr ProcessSet single(Pid p) {
    ProcessSet s;
    s.insert(p);
    return s;
  }

  /// A set from a raw 64-bit mask (bit i set <=> process i in the set).
  /// Only spans pids 0..63; the wide codec paths use word()/set_word().
  [[nodiscard]] static constexpr ProcessSet from_mask(std::uint64_t mask) {
    ProcessSet s;
    s.lo_ = mask;
    return s;
  }

  /// The low 64 bits, for sets known to have no member above pid 63 (it
  /// asserts that); wide-aware code reads word(i).
  [[nodiscard]] constexpr std::uint64_t mask() const {
    assert(hi_zero());
    return lo_;
  }

  /// Word i of the bitset (pids 64*i .. 64*i+63); zero beyond storage.
  [[nodiscard]] constexpr std::uint64_t word(int i) const {
    assert(i >= 0 && i < detail::kSetWords);
    if (i == 0) return lo_;
    return hi_ != nullptr ? hi_[i - 1] : 0;
  }

  /// Overwrites word i. Codec use (ByteReader::process_set).
  constexpr void set_word(int i, std::uint64_t w) {
    assert(i >= 0 && i < detail::kSetWords);
    if (i == 0) {
      lo_ = w;
      return;
    }
    if (w == 0 && hi_ == nullptr) return;
    if (hi_ == nullptr) hi_ = alloc_hi();
    hi_[i - 1] = w;
  }

  constexpr void insert(Pid p) {
    assert(p >= 0 && p < kMaxProcesses);
    if (p < 64) {
      lo_ |= std::uint64_t{1} << p;
      return;
    }
    if (hi_ == nullptr) hi_ = alloc_hi();
    hi_[p / 64 - 1] |= std::uint64_t{1} << (p % 64);
  }

  constexpr void erase(Pid p) {
    assert(p >= 0 && p < kMaxProcesses);
    if (p < 64) {
      lo_ &= ~(std::uint64_t{1} << p);
      return;
    }
    if (hi_ != nullptr) hi_[p / 64 - 1] &= ~(std::uint64_t{1} << (p % 64));
  }

  [[nodiscard]] constexpr bool contains(Pid p) const {
    assert(p >= 0 && p < kMaxProcesses);
    if (p < 64) return (lo_ >> p) & 1U;
    return hi_ != nullptr && ((hi_[p / 64 - 1] >> (p % 64)) & 1U);
  }

  [[nodiscard]] constexpr bool empty() const {
    return lo_ == 0 && hi_zero();
  }

  [[nodiscard]] constexpr int size() const {
    int count = __builtin_popcountll(lo_);
    if (hi_ != nullptr) {
      for (int i = 0; i < detail::kHiWords; ++i) {
        count += __builtin_popcountll(hi_[i]);
      }
    }
    return count;
  }

  [[nodiscard]] constexpr bool intersects(const ProcessSet& o) const {
    if ((lo_ & o.lo_) != 0) return true;
    if (hi_ == nullptr || o.hi_ == nullptr) return false;
    for (int i = 0; i < detail::kHiWords; ++i) {
      if ((hi_[i] & o.hi_[i]) != 0) return true;
    }
    return false;
  }

  [[nodiscard]] constexpr bool is_subset_of(const ProcessSet& o) const {
    if ((lo_ & ~o.lo_) != 0) return false;
    if (hi_ == nullptr) return true;
    for (int i = 0; i < detail::kHiWords; ++i) {
      if ((hi_[i] & ~o.word(i + 1)) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] constexpr ProcessSet operator|(const ProcessSet& o) const {
    ProcessSet r;
    r.lo_ = lo_ | o.lo_;
    if (hi_ != nullptr || o.hi_ != nullptr) {
      r.hi_ = r.alloc_hi();
      for (int i = 0; i < detail::kHiWords; ++i) {
        r.hi_[i] = word(i + 1) | o.word(i + 1);
      }
    }
    return r;
  }
  [[nodiscard]] constexpr ProcessSet operator&(const ProcessSet& o) const {
    ProcessSet r;
    r.lo_ = lo_ & o.lo_;
    if (hi_ != nullptr && o.hi_ != nullptr) {
      r.hi_ = r.alloc_hi();
      for (int i = 0; i < detail::kHiWords; ++i) r.hi_[i] = hi_[i] & o.hi_[i];
    }
    return r;
  }
  /// Set difference: processes in *this but not in o.
  [[nodiscard]] constexpr ProcessSet operator-(const ProcessSet& o) const {
    ProcessSet r;
    r.lo_ = lo_ & ~o.lo_;
    if (hi_ != nullptr) {
      r.hi_ = r.alloc_hi();
      for (int i = 0; i < detail::kHiWords; ++i) {
        r.hi_[i] = hi_[i] & ~o.word(i + 1);
      }
    }
    return r;
  }
  constexpr ProcessSet& operator|=(const ProcessSet& o) {
    lo_ |= o.lo_;
    if (o.hi_ != nullptr) {
      if (hi_ == nullptr) hi_ = alloc_hi();
      for (int i = 0; i < detail::kHiWords; ++i) hi_[i] |= o.hi_[i];
    }
    return *this;
  }
  constexpr ProcessSet& operator&=(const ProcessSet& o) {
    lo_ &= o.lo_;
    if (hi_ != nullptr) {
      if (o.hi_ == nullptr) {
        drop_hi();
      } else {
        for (int i = 0; i < detail::kHiWords; ++i) hi_[i] &= o.hi_[i];
      }
    }
    return *this;
  }

  /// Smallest pid in the set; the set must be nonempty.
  [[nodiscard]] constexpr Pid min() const {
    assert(!empty());
    if (lo_ != 0) return static_cast<Pid>(__builtin_ctzll(lo_));
    for (int i = 0; i < detail::kHiWords; ++i) {
      if (hi_[i] != 0) {
        return static_cast<Pid>(64 * (i + 1) + __builtin_ctzll(hi_[i]));
      }
    }
    return 0;  // unreachable
  }

  /// Largest pid in the set; the set must be nonempty.
  [[nodiscard]] constexpr Pid max() const {
    assert(!empty());
    if (hi_ != nullptr) {
      for (int i = detail::kHiWords - 1; i >= 0; --i) {
        if (hi_[i] != 0) {
          return static_cast<Pid>(64 * (i + 1) + 63 - __builtin_clzll(hi_[i]));
        }
      }
    }
    return static_cast<Pid>(63 - __builtin_clzll(lo_));
  }

  /// The k-th member (0-based) in increasing pid order; k must be < size().
  /// Word-skipping select keeps Rng::pick O(words) instead of O(members).
  [[nodiscard]] constexpr Pid nth(int k) const {
    assert(k >= 0 && k < size());
    for (int i = 0; i < detail::kSetWords; ++i) {
      std::uint64_t w = word(i);
      const int pop = __builtin_popcountll(w);
      if (k >= pop) {
        k -= pop;
        if (i == 0 && hi_ == nullptr) break;
        continue;
      }
      for (int j = 0; j < k; ++j) w &= w - 1;  // drop the k lowest set bits
      return static_cast<Pid>(64 * i + __builtin_ctzll(w));
    }
    return 0;  // unreachable: k < size()
  }

  friend constexpr bool operator==(const ProcessSet& a, const ProcessSet& b) {
    if (a.lo_ != b.lo_) return false;
    if (a.hi_ == nullptr && b.hi_ == nullptr) return true;
    for (int i = 0; i < detail::kHiWords; ++i) {
      if (a.word(i + 1) != b.word(i + 1)) return false;
    }
    return true;
  }
  /// Orders by the infinite-precision bitset value, highest word first: for
  /// sets within pids 0..63 this is exactly the old one-word mask order, so
  /// sorted containers and codecs keyed on it keep their byte layouts.
  friend constexpr std::strong_ordering operator<=>(const ProcessSet& a,
                                                    const ProcessSet& b) {
    if (a.hi_ != nullptr || b.hi_ != nullptr) {
      for (int i = detail::kSetWords - 1; i >= 1; --i) {
        const std::uint64_t aw = a.word(i);
        const std::uint64_t bw = b.word(i);
        if (aw != bw) return aw <=> bw;
      }
    }
    return a.lo_ <=> b.lo_;
  }

  /// Iterates over the members in increasing pid order.
  class Iterator {
   public:
    constexpr Iterator(const ProcessSet* s, int word, std::uint64_t bits)
        : s_(s), word_(word), bits_(bits) {
      advance_to_nonempty();
    }
    constexpr Pid operator*() const {
      return static_cast<Pid>(64 * word_ + __builtin_ctzll(bits_));
    }
    constexpr Iterator& operator++() {
      bits_ &= bits_ - 1;  // clear lowest set bit
      advance_to_nonempty();
      return *this;
    }
    friend constexpr bool operator==(const Iterator& a, const Iterator& b) {
      return a.word_ == b.word_ && a.bits_ == b.bits_;
    }

   private:
    constexpr void advance_to_nonempty() {
      while (bits_ == 0 && word_ < detail::kSetWords) {
        if (s_->hi_ == nullptr) {
          word_ = detail::kSetWords;
          break;
        }
        ++word_;
        bits_ = word_ < detail::kSetWords ? s_->word(word_) : 0;
      }
    }

    const ProcessSet* s_;
    int word_;
    std::uint64_t bits_;
  };

  [[nodiscard]] constexpr Iterator begin() const {
    return Iterator(this, 0, lo_);
  }
  [[nodiscard]] constexpr Iterator end() const {
    return Iterator(this, detail::kSetWords, 0);
  }

  /// Human-readable form, e.g. "{0,2,5}".
  [[nodiscard]] std::string to_string() const {
    std::string out = "{";
    bool first = true;
    for (Pid p : *this) {
      if (!first) out += ',';
      out += std::to_string(p);
      first = false;
    }
    out += '}';
    return out;
  }

 private:
  [[nodiscard]] constexpr bool hi_zero() const {
    if (hi_ == nullptr) return true;
    for (int i = 0; i < detail::kHiWords; ++i) {
      if (hi_[i] != 0) return false;
    }
    return true;
  }

  /// A zero-filled block of kHiWords words.
  [[nodiscard]] static constexpr std::uint64_t* alloc_hi() {
    return new std::uint64_t[detail::kHiWords]();
  }

  constexpr void drop_hi() {
    if (hi_ == nullptr) return;
    delete[] hi_;
    hi_ = nullptr;
  }

  std::uint64_t lo_ = 0;
  std::uint64_t* hi_ = nullptr;
};

/// True when the set holds a strict majority of n processes.
[[nodiscard]] constexpr bool is_majority(const ProcessSet& s, Pid n) {
  return 2 * s.size() > n;
}

}  // namespace nucon
