// The Mostéfaoui-Raynal leader-based consensus family (paper §6.3,
// high-level description; original in [6]).
//
// Each asynchronous round has three phases:
//   1. broadcast (LEAD, k, x); wait for the LEAD of the process currently
//      output by Omega and adopt its estimate;
//   2. broadcast (REP, k, x); wait for reports from a "quorum" and prepare
//      a proposal: v if the quorum unanimously reported v, else "?";
//   3. broadcast (PROP, k, proposal); wait for proposals from a "quorum";
//      adopt any v != "?", decide if the quorum unanimously proposed v.
//
// The family is parameterized by what counts as a quorum:
//   kMajority  — any majority of processes; uniform consensus when a
//                majority is correct (the original algorithm, run with
//                plain Omega);
//   kFdQuorum  — the set currently output by a quorum failure detector
//                (the run must use a composed (Omega, Sigma-like) oracle).
//                With Sigma this solves *uniform* consensus in any
//                environment; with Sigma^nu it is the paper's §6.3
//                *counterexample*: contamination can make correct
//                processes disagree (see algo/naive_sigma_nu.hpp).
#pragma once

#include <map>
#include <optional>

#include "sim/automaton.hpp"

namespace nucon {

enum class MrQuorumMode { kMajority, kFdQuorum };

struct MrOptions {
  Pid n = 0;
  MrQuorumMode mode = MrQuorumMode::kMajority;
};

class MrConsensus final : public ConsensusAutomaton {
 public:
  MrConsensus(Pid self, Value proposal, MrOptions opts);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] std::optional<Value> decision() const override {
    return decided_;
  }

  [[nodiscard]] bool save_state(ByteWriter& w) const override;
  [[nodiscard]] bool restore_state(ByteReader& r) override;

  /// Current asynchronous round (1-based), for instrumentation.
  [[nodiscard]] int round() const { return round_; }

  /// Round in which this process decided (0 if undecided).
  [[nodiscard]] int decided_round() const { return decided_round_; }

 private:
  enum class Phase { kAwaitLead, kAwaitReports, kAwaitProposals };

  MrConsensus(const MrConsensus&) = default;
  [[nodiscard]] MrConsensus* clone_raw() const override {
    return new MrConsensus(*this);
  }

  /// Sentinel for the special proposal value "?".
  static constexpr Value kQuestion = INT64_MIN;

  /// Slots sized n on first touch (a fixed kMaxProcesses array would cost
  /// ~50KB per buffered round at the 1024-process cap).
  struct RoundMsgs {
    std::vector<std::optional<Value>> lead;
    std::vector<std::optional<Value>> rep;
    std::vector<std::optional<Value>> prop;
    void ensure(Pid n) {
      if (lead.empty()) {
        lead.resize(static_cast<std::size_t>(n));
        rep.resize(static_cast<std::size_t>(n));
        prop.resize(static_cast<std::size_t>(n));
      }
    }
  };

  void start_round(std::vector<Outgoing>& out);
  void advance(const FdValue& d, std::vector<Outgoing>& out);
  void on_message(Pid from, ByteView payload);

  /// True when every member of the FD quorum `q` has a stored message in
  /// `slot` for the current round.
  [[nodiscard]] bool quorum_complete(
      const std::vector<std::optional<Value>>& slot, const ProcessSet& q) const;

  /// Seals (tag, round, v) into scratch_ and returns one shareable buffer.
  [[nodiscard]] SharedBytes encode(std::uint8_t tag, int round, Value v);

  const Pid self_;
  const MrOptions opts_;

  Value x_;  // current estimate
  int round_ = 0;
  Phase phase_ = Phase::kAwaitLead;
  std::optional<Value> decided_;
  int decided_round_ = 0;
  std::map<int, RoundMsgs> inbox_;

  /// Encode scratch: reset before each message build, so steady-state
  /// encoding reuses one grown buffer instead of allocating per send.
  ByteWriter scratch_;
};

/// Factory for the classic majority-based algorithm (use with Omega; needs
/// a majority of correct processes for termination).
[[nodiscard]] ConsensusFactory make_mr_majority(Pid n);

/// Factory for the quorum-based variant (use with a composed
/// (Omega, Sigma) oracle for uniform consensus in any environment, or with
/// (Omega, Sigma^nu) to reproduce the §6.3 contamination counterexample).
[[nodiscard]] ConsensusFactory make_mr_fd_quorum(Pid n);

}  // namespace nucon
