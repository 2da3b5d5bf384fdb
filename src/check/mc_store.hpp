// The model checker's storage (check/model_checker.cpp), collapsed as in
// SPIN's collapse compression (Holzmann, "State Compression in SPIN",
// 1997): each component of a configuration is stored once, and a
// configuration is a short vector of component ids. Internal to the
// checker; tests include it to reach the visited store directly.
//
// Every container here is append-only and hands out addresses that never
// move, so worker threads can read what existed when a layer started while
// the merge appends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "check/model_checker.hpp"

namespace nucon::mc {

/// The id no table hands out: "not interned (yet)".
inline constexpr std::uint32_t kNoId = ~std::uint32_t{0};

struct Key128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend Key128 operator^(Key128 a, Key128 b) {
    return {a.lo ^ b.lo, a.hi ^ b.hi};
  }
  friend Key128 operator&(Key128 a, Key128 b) {
    return {a.lo & b.lo, a.hi & b.hi};
  }
  friend bool operator==(const Key128&, const Key128&) = default;
};

/// Runs of T in chunks: a run never moves once handed out.
template <class T>
class Arena {
 public:
  explicit Arena(std::size_t chunk) : chunk_(chunk) {}

  [[nodiscard]] T* alloc(std::size_t count) {
    if (count > left_) {
      const std::size_t size = std::max(count, chunk_);
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(size));
      next_ = chunks_.back().get();
      left_ = size;
    }
    T* run = next_;
    next_ += count;
    left_ -= count;
    return run;
  }

  [[nodiscard]] std::span<const T> copy(std::span<const T> src) {
    T* run = alloc(src.size());
    std::copy(src.begin(), src.end(), run);
    return {run, src.size()};
  }

 private:
  std::size_t chunk_;
  std::vector<std::unique_ptr<T[]>> chunks_;
  T* next_ = nullptr;
  std::size_t left_ = 0;
};

/// Elements under dense ids from 0. The chunk list is reserved up front,
/// so reading an existing id is safe while the owner appends.
template <class T>
class Table {
 public:
  Table() { chunks_.reserve(kMaxChunks); }

  /// The id of a new, default-constructed element.
  std::uint32_t append() {
    if ((size_ & kMask) == 0) {
      if (chunks_.size() == kMaxChunks) {
        throw std::length_error("model checker: table full");
      }
      chunks_.push_back(std::make_unique<T[]>(kMask + 1));
    }
    return size_++;
  }

  [[nodiscard]] T& operator[](std::uint32_t id) {
    return chunks_[id >> kBits][id & kMask];
  }
  [[nodiscard]] const T& operator[](std::uint32_t id) const {
    return chunks_[id >> kBits][id & kMask];
  }
  [[nodiscard]] std::uint32_t size() const { return size_; }

 private:
  static constexpr unsigned kBits = 10;
  static constexpr std::uint32_t kMask = (1u << kBits) - 1;
  static constexpr std::size_t kMaxChunks = 1u << 16;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;
};

/// Open addressing from a 64-bit hash to ids. Ids may share a hash: a
/// lookup walks the probe run and the caller's `match(id)` decides, so
/// there are no chains. The low bits of the hash pick the slot and the
/// high half is the slot's tag.
class IdIndex {
 public:
  IdIndex() : slots_(kInitialSlots) {}

  template <class Match>
  [[nodiscard]] std::uint32_t find(std::uint64_t h, Match&& match) const {
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = h & mask(); slots_[i].id != kNoId;
         i = (i + 1) & mask()) {
      if (slots_[i].tag == tag && match(slots_[i].id)) return slots_[i].id;
    }
    return kNoId;
  }

  /// `hash_of(id)` gives a stored id's hash back when the index grows.
  template <class HashOf>
  void insert(std::uint64_t h, std::uint32_t id, HashOf&& hash_of) {
    if (++count_ * 10 >= slots_.size() * 7) {
      std::vector<Slot> old(slots_.size() * 2);
      old.swap(slots_);
      for (const Slot& s : old) {
        if (s.id != kNoId) place(hash_of(s.id), s.id);
      }
    }
    place(h, id);
  }

  void prefetch(std::uint64_t h) const { __builtin_prefetch(&slots_[h & mask()]); }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNoId;
  };

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  void place(std::uint64_t h, std::uint32_t id) {
    std::size_t i = h & mask();
    while (slots_[i].id != kNoId) i = (i + 1) & mask();
    slots_[i] = {static_cast<std::uint32_t>(h >> 32), id};
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

/// Contents (runs of T) stored once each under dense ids from 0, found by
/// a 128-bit key and then compared in full: two contents that share a key
/// are both kept, so a hit is exact. Sections and payloads are interned in
/// byte tables, and the visited store keeps configurations as words.
/// Reading an existing id is safe while the owner appends.
template <class T>
class ContentTable {
 public:
  struct Entry {
    std::span<const T> content;
    Key128 key;
  };
  struct Found {
    std::uint32_t id = kNoId;  // the entry holding exactly the content
    bool key_seen = false;     // some entry has the key
  };

  [[nodiscard]] Found find(Key128 key, std::span<const T> content) const {
    Found out;
    out.id = index_.find(key.lo, [&](std::uint32_t id) {
      const Entry& e = entries_[id];
      if (e.key != key) return false;
      out.key_seen = true;
      return std::ranges::equal(e.content, content);
    });
    return out;
  }

  /// Stores a copy of `content` under `key`; the id is the insertion index.
  std::uint32_t insert(Key128 key, std::span<const T> content) {
    const std::uint32_t id = entries_.append();
    entries_[id] = {content_.copy(content), key};
    index_.insert(key.lo, id, HashOf{this});
    return id;
  }

  std::uint32_t intern(Key128 key, std::span<const T> content) {
    const std::uint32_t id = find(key, content).id;
    return id != kNoId ? id : insert(key, content);
  }

  [[nodiscard]] const Entry& operator[](std::uint32_t id) const {
    return entries_[id];
  }
  [[nodiscard]] std::uint32_t size() const { return entries_.size(); }
  void prefetch(Key128 key) const { index_.prefetch(key.lo); }

 private:
  struct HashOf {
    const ContentTable* table;
    std::uint64_t operator()(std::uint32_t id) const {
      return table->entries_[id].key.lo;
    }
  };

  Table<Entry> entries_;
  Arena<T> content_{std::size_t{1} << 16};
  IdIndex index_;
};

using InternTable = ContentTable<std::uint8_t>;
using ConfigStore = ContentTable<std::uint32_t>;

/// model_check_consensus with `key_mask` ANDed into every visited key:
/// how tests make distinct configurations share a key.
[[nodiscard]] McResult model_check_masked(const McOptions& opts,
                                          Key128 key_mask);

}  // namespace nucon::mc
