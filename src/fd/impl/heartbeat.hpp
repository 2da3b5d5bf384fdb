// Heartbeat-implemented failure detectors.
//
// Everything else in fd/ is *generated*: an oracle reads the ground-truth
// failure pattern F and synthesizes a history in the detector's class. The
// automata here are *implementations* — they run beside the algorithm under
// test, observe only messages and their own step counter, and estimate who
// has crashed:
//
//   - every process broadcasts an empty heartbeat every `heartbeat_every`
//     of its own steps;
//   - a peer is suspected when no heartbeat has arrived for more than its
//     current timeout (counted in the observer's own steps, the only clock
//     a process has);
//   - a heartbeat from a suspected peer is a *mistake*: the peer is
//     unsuspected and its timeout grows by `timeout_increment` (capped at
//     `timeout_max`), the classic adaptive scheme of Chandra–Toueg's ◇P
//     algorithm.
//
// The ◇S view outputs the suspect set; the Ω view outputs the lowest id
// not currently timed out (the heartbeat chain: id order is the priority
// order, so once suspicions stabilize every process points at the same
// lowest correct id). Crashed peers stop sending, so completeness holds
// unconditionally; accuracy holds once the adaptive timeout exceeds the
// real inter-heartbeat gap, which the timing-aware scheduler mode
// (sim/timing.hpp) keeps bounded — that is what makes the timeouts
// meaningful rather than adversarial. Under the untimed scheduler its
// fairness backstop (a bounded message age) bounds the gap as well.
//
// The Ω view is the one implemented Ω: FdHost (host.hpp) hosts it beside
// an algorithm, and FromScratchConsensus steps it as its leader.
#pragma once

#include <vector>

#include "sim/automaton.hpp"
#include "sim/failure_pattern.hpp"

namespace nucon {

/// Which detector class the module's output variable presents.
enum class HeartbeatMode {
  kOmega,     ///< leader = lowest id not currently timed out
  kDiamondS,  ///< suspects = currently timed-out peers
};

struct HeartbeatOptions {
  /// Broadcast a heartbeat every this-many own steps. 0 = auto (2n): each
  /// peer then contributes less than half a message per receiver step, so
  /// queues stay bounded even under the adversarial scheduler's lambda
  /// steps.
  int heartbeat_every = 0;

  /// Initial per-peer timeout, in own steps. 0 = auto (2 * heartbeat_every).
  Time timeout_init = 0;

  /// Timeout growth per mistake. 0 = auto (heartbeat_every).
  Time timeout_increment = 0;

  /// Cap on the adaptive timeout; keeps crash-detection time bounded no
  /// matter how many mistakes preceded the crash. 0 = auto
  /// (16 * heartbeat_every, tolerating speed skew up to ~14x).
  Time timeout_max = 0;

  /// The same options with every auto (0) field replaced by its default
  /// for an n-process system.
  [[nodiscard]] HeartbeatOptions resolved(Pid n) const;
};

class HeartbeatFd final : public Automaton {
 public:
  HeartbeatFd(Pid self, Pid n, HeartbeatMode mode, HeartbeatOptions opts);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  /// The module's current output variable, shaped by the mode.
  [[nodiscard]] FdValue output() const;

  /// Peers currently timed out (never contains self).
  [[nodiscard]] ProcessSet suspected() const { return suspected_; }

  /// Lowest id not currently timed out (always defined: self never is).
  [[nodiscard]] Pid leader() const {
    return (ProcessSet::full(n_) - suspected_).min();
  }

  /// Heartbeats received from peers that were suspected at the time.
  [[nodiscard]] std::int64_t mistakes() const { return mistakes_; }

  [[nodiscard]] Time timeout_of(Pid q) const {
    return timeout_[static_cast<std::size_t>(q)];
  }

  [[nodiscard]] Pid self() const { return self_; }

  [[nodiscard]] bool save_state(ByteWriter& w) const override;
  /// Refuses a state no run reaches: a peer heard after the local time, a
  /// timeout outside [timeout_init, timeout_max], or self suspected.
  [[nodiscard]] bool restore_state(ByteReader& r) override;

 private:
  HeartbeatFd(const HeartbeatFd&) = default;
  [[nodiscard]] HeartbeatFd* clone_raw() const override {
    return new HeartbeatFd(*this);
  }

  Pid self_;
  Pid n_;
  HeartbeatMode mode_;
  HeartbeatOptions opts_;  // resolved: no zero fields

  Time local_time_ = 0;  // own steps taken; the only clock a process has
  std::vector<Time> last_heard_;
  std::vector<Time> timeout_;
  ProcessSet suspected_;
  std::int64_t mistakes_ = 0;

  /// Empty: Incoming::from identifies the sender, which is all a heartbeat
  /// says. Sealed once and shared by every broadcast.
  SharedBytes heartbeat_{Bytes{}};
};

/// Factory for running bare heartbeat modules (no hosted algorithm), e.g.
/// to record their output history and check it against a detector class.
[[nodiscard]] AutomatonFactory make_heartbeat_fd(Pid n, HeartbeatMode mode,
                                                 HeartbeatOptions opts = {});

}  // namespace nucon
