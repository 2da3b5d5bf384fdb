// Atomic register emulation from quorum failure detectors (ABD-style).
//
// Background for the paper: Delporte et al. proved (Omega, Sigma) weakest
// for UNIFORM consensus by going through registers — uniform consensus can
// implement registers, and Sigma is what registers need. The paper then
// notes that NONUNIFORM consensus "is not strong enough to implement
// registers", which is why its proofs need different techniques. This
// module makes that contrast executable:
//
//   * with Sigma quorums, the classic two-phase ABD read/write protocol
//     yields an atomic multi-writer multi-reader register in ANY
//     environment (every operation's quorum intersects every other's);
//   * with Sigma^nu quorums, a faulty-but-not-yet-crashed process's
//     operations may use quorums disjoint from everyone else's, and the
//     register is no longer atomic (reg/linearizability.hpp catches the
//     stale reads) — registers have no useful "nonuniform" weakening.
//
// Every process is both a replica (holding a (timestamp, writer, value)
// tag) and a client executing a scripted workload of writes and reads.
// Both operation phases wait on the quorum currently output by the
// detector, re-read each step, exactly like the MR-Sigma consensus phases.
#pragma once

#include <optional>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/failure_pattern.hpp"

namespace nucon {

/// The (timestamp, writer) tag ordering writes; lexicographic.
struct RegTag {
  std::int64_t ts = 0;
  Pid writer = -1;

  friend bool operator==(const RegTag&, const RegTag&) = default;
  friend auto operator<=>(const RegTag& a, const RegTag& b) {
    if (a.ts != b.ts) return a.ts <=> b.ts;
    return a.writer <=> b.writer;
  }
};

struct RegOp {
  enum class Kind { kWrite, kRead };
  Kind kind = Kind::kRead;
  Value value = 0;  // for writes
};

/// One completed operation, for the atomicity checker. Times are the
/// step indices (paper time) of invocation and response.
struct RegOpRecord {
  Pid client = -1;
  RegOp::Kind kind = RegOp::Kind::kRead;
  Value value = 0;  // written or returned
  RegTag tag;       // the tag written / the tag the read returned
  std::int64_t invoked_step = 0;
  std::int64_t responded_step = 0;
};

class AbdRegister final : public Automaton {
 public:
  /// The client executes `workload` sequentially (one op completes before
  /// the next is invoked), then goes idle (still serving as a replica).
  AbdRegister(Pid self, Pid n, std::vector<RegOp> workload);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] const std::vector<RegOpRecord>& completed() const {
    return completed_;
  }

  /// A write that reached its install phase but has not responded (e.g.
  /// its client crashed mid-operation). Its tag may be visible to readers,
  /// so the atomicity checker must treat it as a concurrent write that
  /// never responds (responded_step = max).
  [[nodiscard]] std::optional<RegOpRecord> in_flight_write() const;
  [[nodiscard]] bool workload_done() const {
    return next_op_ >= workload_.size() && !active_;
  }

  /// Replica state, for tests.
  [[nodiscard]] RegTag replica_tag() const { return tag_; }
  [[nodiscard]] Value replica_value() const { return value_; }

  /// Observational instrumentation (not algorithm state): the scheduler
  /// observer calls this after each of this process's steps with the
  /// global time, filling in invocation/response times of operations that
  /// started/completed during the step. See record_register_times().
  void stamp_times(Time now);

 private:
  struct Pending {
    RegOp op;
    std::uint64_t opid = 0;
    int phase = 1;  // 1 = query, 2 = update
    ProcessSet replied;
    RegTag best_tag;
    Value best_value = 0;
    std::int64_t invoked_step = 0;
  };

  void on_message(Pid from, ByteView payload, std::vector<Outgoing>& out);
  void advance(const FdValue& d, std::vector<Outgoing>& out);
  void begin_phase(std::vector<Outgoing>& out);

  const Pid self_;
  const Pid n_;

  // Replica side.
  RegTag tag_;
  Value value_ = 0;

  // Client side.
  std::vector<RegOp> workload_;
  std::size_t next_op_ = 0;
  bool active_ = false;
  Pending pending_;
  std::uint64_t opid_counter_ = 0;
  std::int64_t own_steps_ = 0;
  std::vector<RegOpRecord> completed_;

  /// Encode scratch: reset before each message build, so steady-state
  /// encoding reuses one grown buffer instead of allocating per send.
  ByteWriter scratch_;
};

/// Factory: process p runs workloads[p].
[[nodiscard]] AutomatonFactory make_abd(
    Pid n, std::vector<std::vector<RegOp>> workloads);

/// Gathers every process's completed operations (times stamped).
[[nodiscard]] std::vector<RegOpRecord> collect_records(
    const std::vector<std::unique_ptr<Automaton>>& automata);

}  // namespace nucon
