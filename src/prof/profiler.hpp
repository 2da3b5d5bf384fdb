// Hot-path profiling probes for the simulation core.
//
// A ProfileCollector accumulates per-phase (calls, ticks) pairs for the
// scheduler's step taxonomy — delivery choice, oracle sample, trace hook,
// automaton step, payload encode — plus a kStep envelope spanning the
// whole per-process step body. Timestamps come from rdtsc where available
// (one instruction, ~20 cycles, monotone on every x86_64 this project
// targets), so an *active* probe costs two register reads per phase
// boundary; an *inattached* probe (SchedulerOptions::profile == nullptr)
// costs one predictable null test, the same discipline as NUCON_TRACE.
//
// Determinism contract: per-phase CALL COUNTS are a pure function of the
// run and fold into trace::MetricsRegistry as `prof.<phase>.calls`
// counters (only when a collector is attached, so default runs keep
// byte-identical metrics). TICK totals are wall-clock and therefore
// nondeterministic: they never enter the registry and are emitted into
// reports only behind include_timings, exactly like wall_seconds
// (obs::profile_section_of).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace nucon::trace {
class MetricsRegistry;
}  // namespace nucon::trace

namespace nucon::prof {

/// The scheduler hot-loop taxonomy (EXPERIMENTS.md "Profiling"). kStep
/// is the envelope: the whole per-process step body, which the other
/// phases partition via StepProbe::lap.
enum class Phase : int {
  kStep = 0,        ///< envelope: one whole live-process step
  kDeliveryChoice,  ///< injection hook + delivery policy + queue take
  kOracleSample,    ///< Oracle::value(p, now)
  kTraceHook,       ///< step record, metric updates, NUCON_TRACE fan-out,
                    ///< state hashing, decide detection, on_step observer
  kAutomatonStep,   ///< Automaton::step (incl. the automaton's encoding)
  kPayloadEncode,   ///< outgoing message materialization + enqueue
  kCount,
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

/// Stable lowercase name ("delivery_choice", ...); the registry key is
/// "prof.<name>.calls".
[[nodiscard]] const char* phase_name(Phase p);

/// Monotone timestamp in "ticks" (rdtsc cycles on x86, nanoseconds on the
/// fallback clock). Convert with ticks_per_second().
[[nodiscard]] inline std::uint64_t ticks_now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Tick rate, calibrated against the steady clock once per process and
/// cached (nondeterministic, like every wall-clock quantity here).
[[nodiscard]] double ticks_per_second();

struct PhaseStats {
  std::int64_t calls = 0;
  std::int64_t ticks = 0;

  friend bool operator==(const PhaseStats&, const PhaseStats&) = default;
};

/// Per-phase accumulator. Not thread-safe: one collector per run (the
/// sweep engine gives each job its own and merges serially, mirroring the
/// MetricsRegistry fold).
class ProfileCollector {
 public:
  void record(Phase ph, std::uint64_t ticks) {
    PhaseStats& s = phases_[static_cast<std::size_t>(ph)];
    ++s.calls;
    s.ticks += static_cast<std::int64_t>(ticks);
  }

  [[nodiscard]] const PhaseStats& phase(Phase ph) const {
    return phases_[static_cast<std::size_t>(ph)];
  }

  [[nodiscard]] bool empty() const;

  /// Bucket-wise sum; calls stay deterministic under any merge order.
  void merge(const ProfileCollector& other);

  /// Adds `prof.<phase>.calls` counters (kStep included) to the registry.
  /// Tick totals are deliberately NOT folded — they are wall-clock.
  void fold_counts_into(trace::MetricsRegistry& metrics) const;

  /// Wall-clock seconds spent in a phase (ticks / ticks_per_second()).
  [[nodiscard]] double seconds(Phase ph) const;

  /// Mean nanoseconds per call of a phase (0 when never hit).
  [[nodiscard]] double ns_per_call(Phase ph) const;

  /// Fraction of the kStep envelope covered by the inner phases
  /// (0.0 when the envelope is empty, so an empty collector can never
  /// masquerade as perfect coverage next to all-zero timings). The lap
  /// discipline in the scheduler makes this ~1 by construction; the
  /// prof-labeled tests pin >= 0.9 as the acceptance floor.
  [[nodiscard]] double covered_fraction() const;

  /// One line per non-empty phase: name, calls, total ms, ns/call, share.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ProfileCollector&,
                         const ProfileCollector&) = default;

 private:
  std::array<PhaseStats, kPhaseCount> phases_{};
};

/// Lap-style step timer: begin() stamps the envelope start, each lap(ph)
/// charges the interval since the previous boundary to `ph`, finish()
/// charges begin()..now to kStep. Because consecutive laps share their
/// boundary timestamp, the inner phases partition the envelope exactly —
/// no double counting, no uncovered gaps beyond the loop control outside
/// begin()/finish().
class StepProbe {
 public:
  explicit StepProbe(ProfileCollector* c) : c_(c) {}

  void begin() {
    if (c_ == nullptr) return;
    start_ = last_ = ticks_now();
  }
  void lap(Phase ph) {
    if (c_ == nullptr) return;
    const std::uint64_t now = ticks_now();
    // Clamp instead of trusting the TSC: a backwards step (SMI, migration
    // across unsynced sockets) would otherwise wrap to a huge unsigned
    // delta and poison the phase total into nonsense (the all-zero-ns
    // H3 rendering bug).
    c_->record(ph, now >= last_ ? now - last_ : 0);
    last_ = now;
  }
  void finish() {
    if (c_ == nullptr) return;
    const std::uint64_t now = ticks_now();
    c_->record(Phase::kStep, now >= start_ ? now - start_ : 0);
  }

 private:
  ProfileCollector* c_;
  std::uint64_t start_ = 0;
  std::uint64_t last_ = 0;
};

}  // namespace nucon::prof
