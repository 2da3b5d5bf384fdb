// Shared helpers for concrete oracles.
#pragma once

#include <vector>

#include "fd/failure_detector.hpp"
#include "util/rng.hpp"

namespace nucon {

/// Deterministic stateless noise: the same (seed, p, t, salt) always mixes
/// to the same word, so oracles can answer value(p, t) without memoizing
/// while still being proper (single-valued) histories.
[[nodiscard]] constexpr std::uint64_t oracle_mix(std::uint64_t seed, Pid p,
                                                 Time t,
                                                 std::uint64_t salt = 0) {
  std::uint64_t s = seed ^ (static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(t) * 0xbf58476d1ce4e5b9ULL) ^
                    (salt * 0x94d049bb133111ebULL);
  return splitmix64(s);
}

/// A deterministic pseudo-random subset of `universe` that always includes
/// `always`, sized between |always| and |universe|.
[[nodiscard]] inline ProcessSet noisy_superset(const ProcessSet& always,
                                               const ProcessSet& universe,
                                               std::uint64_t mix) {
  Rng rng(mix);
  const ProcessSet extras = universe - always;
  ProcessSet out = always;
  if (!extras.empty()) {
    const int k = static_cast<int>(rng.below(static_cast<std::uint64_t>(extras.size()) + 1));
    out |= rng.pick_subset(extras, k);
  }
  return out;
}

/// Per-process memo of a windowed draw, shared by the Sigma-family oracles.
///
/// Their histories are piecewise constant: a module's quorum depends on t
/// only through the key (window = t / hold, stable = t >= stabilize_at),
/// because the key is all of t that reaches oracle_mix. The memo keeps, for
/// each process, the key of its last draw and the value drawn. A query with
/// that key returns the stored value; any other key (a new window, the
/// stabilization flip, time going backwards) calls `draw` and replaces the
/// entry. Answers are therefore exactly the stateless draw's, and the memo
/// holds at most n entries. Storage is sized on the first draw, so building
/// an oracle that is never queried costs nothing extra.
class WindowMemo {
 public:
  explicit WindowMemo(Pid n) : n_(n) {}

  /// p's value under key (window, stable). `draw` must be a pure function
  /// of (p, window, stable). A pid outside [0, n) is drawn and not stored.
  template <typename Draw>
  [[nodiscard]] FdValue get(Pid p, Time window, bool stable, Draw&& draw) {
    if (p < 0 || p >= n_) return draw();
    if (entries_.empty()) entries_.resize(static_cast<std::size_t>(n_));
    Entry& e = entries_[static_cast<std::size_t>(p)];
    if (!e.filled || e.window != window || e.stable != stable) {
      e.value = draw();
      e.window = window;
      e.stable = stable;
      e.filled = true;
    }
    return e.value;
  }

 private:
  struct Entry {
    // A flag rather than a sentinel window: every window value, negative
    // ones included, is some t's key, and an empty entry must match none.
    bool filled = false;
    bool stable = false;
    Time window = 0;
    FdValue value;
  };

  Pid n_;
  std::vector<Entry> entries_;
};

}  // namespace nucon
