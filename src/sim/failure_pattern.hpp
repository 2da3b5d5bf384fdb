// Failure patterns and environments (paper §2.2).
//
// A failure pattern F maps each global time t to the set of processes that
// have crashed by t; crashes are permanent. An environment is a set of
// failure patterns; the paper's E_t is "any set of up to t processes may
// crash, at any times". We represent a pattern by its per-process crash
// time (kNeverCrashes for correct processes), which encodes exactly the
// monotone functions F : N -> 2^Pi the paper allows.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace nucon {

/// Discrete global clock (paper §2.2). Processes never see this clock; it
/// exists to order steps and to anchor failure patterns and FD histories.
using Time = std::int64_t;

inline constexpr Time kNeverCrashes = -1;

class FailurePattern {
 public:
  /// All n processes correct.
  explicit FailurePattern(Pid n);

  /// crash_times[p] == kNeverCrashes means p is correct; otherwise p takes
  /// no step at any time >= crash_times[p].
  FailurePattern(Pid n, std::vector<Time> crash_times);

  [[nodiscard]] Pid n() const { return n_; }

  /// F(t): processes crashed through time t.
  [[nodiscard]] ProcessSet crashed_at(Time t) const;

  /// faulty(F) — processes that crash at some time.
  [[nodiscard]] ProcessSet faulty() const { return faulty_; }

  /// correct(F) = Pi - faulty(F).
  [[nodiscard]] ProcessSet correct() const {
    return ProcessSet::full(n_) - faulty_;
  }

  [[nodiscard]] bool is_correct(Pid p) const { return !faulty_.contains(p); }

  /// True iff p has not crashed by time t (p may still be faulty later),
  /// i.e. !crashed_at(t).contains(p) without building the set. p in [0, n).
  [[nodiscard]] bool alive_at(Pid p, Time t) const {
    assert(p >= 0 && p < n_);
    const Time crash = crash_times_[static_cast<std::size_t>(p)];
    return crash == kNeverCrashes || t < crash;
  }

  [[nodiscard]] Time crash_time(Pid p) const { return crash_times_[static_cast<std::size_t>(p)]; }

  /// First time at which every faulty process has crashed (0 if none).
  [[nodiscard]] Time all_faulty_crashed_by() const;

  /// Marks p as crashing at time t (t >= 0).
  void set_crash(Pid p, Time t);

  [[nodiscard]] std::string to_string() const;

 private:
  Pid n_;
  std::vector<Time> crash_times_;
  ProcessSet faulty_;
};

/// The environment E_t = { F : |faulty(F)| <= t } (paper §7), as a sampler
/// of random failure patterns within it.
struct Environment {
  Pid n = 0;
  Pid max_faulty = 0;  // the `t` of E_t

  [[nodiscard]] bool majority_correct() const { return 2 * max_faulty < n; }

  /// Draws a pattern with exactly `faults` crashes (faults <= max_faulty),
  /// with crash times uniform in [0, latest_crash].
  [[nodiscard]] FailurePattern sample(Rng& rng, Pid faults,
                                      Time latest_crash) const;

  /// Draws a pattern with a uniform number of crashes in [0, max_faulty].
  [[nodiscard]] FailurePattern sample(Rng& rng, Time latest_crash) const;
};

}  // namespace nucon
