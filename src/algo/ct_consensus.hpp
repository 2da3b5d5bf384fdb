// The Chandra-Toueg rotating-coordinator consensus algorithm (reference
// [2] of the paper), driven by the eventually-strong detector <>S.
//
// Included as the classical baseline: it predates the leader-based designs
// the paper builds on, requires a majority of correct processes, and gives
// the extraction pipeline (core/extract_sigma_nu) a consensus algorithm
// whose detector is *not* a quorum detector.
//
// Faithful sequential formulation — each process runs rounds in order, and
// the coordinator's duties are phases of its own round:
//   phase 1: everyone sends its (estimate, timestamp) to the round's
//            coordinator c = (r-1) mod n;
//   phase 2: c waits for a majority of estimates and broadcasts the one
//            with the highest timestamp as the round's selection;
//   phase 3: everyone waits for the selection (adopt + ACK) or for <>S to
//            suspect c (NACK);
//   phase 4: c waits for a majority of replies and, if all of the needed
//            majority were ACKs, floods DECIDE (reliable broadcast by
//            re-flooding on first receipt).
#pragma once

#include <map>
#include <optional>

#include "sim/automaton.hpp"

namespace nucon {

class CtConsensus final : public ConsensusAutomaton {
 public:
  CtConsensus(Pid self, Value proposal, Pid n);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] std::optional<Value> decision() const override {
    return decided_;
  }

  [[nodiscard]] bool save_state(ByteWriter& w) const override;
  [[nodiscard]] bool restore_state(ByteReader& r) override;

  [[nodiscard]] int round() const { return round_; }
  [[nodiscard]] int decided_round() const { return decided_round_; }

 private:
  CtConsensus(const CtConsensus&) = default;
  [[nodiscard]] CtConsensus* clone_raw() const override {
    return new CtConsensus(*this);
  }

  enum class Phase {
    kAwaitEstimates,  // coordinator only
    kAwaitSelection,
    kAwaitReplies,  // coordinator only
  };

  /// Buffered per-round messages (messages may arrive before this process
  /// enters the round; entries below the current round are pruned).
  struct RoundInbox {
    std::map<Pid, std::pair<Value, int>> estimates;
    std::optional<Value> selection;
    int acks = 0;
    int replies = 0;
  };

  void on_message(Pid from, ByteView payload, std::vector<Outgoing>& out);
  void advance(const FdValue& d, std::vector<Outgoing>& out);
  void start_round(std::vector<Outgoing>& out);
  void flood_decide(Value v, std::vector<Outgoing>& out);

  [[nodiscard]] Pid coordinator_of(int round) const {
    return static_cast<Pid>((round - 1) % n_);
  }

  const Pid self_;
  const Pid n_;

  Value x_;
  int ts_ = 0;  // round of the last estimate adoption
  int round_ = 0;
  Phase phase_ = Phase::kAwaitSelection;
  Value select_value_ = 0;  // coordinator: this round's selection
  std::optional<Value> decided_;
  int decided_round_ = 0;
  bool flooded_decide_ = false;
  std::map<int, RoundInbox> inbox_;

  /// Encode scratch: reset before each message build, so steady-state
  /// encoding reuses one grown buffer instead of allocating per send.
  ByteWriter scratch_;
};

[[nodiscard]] ConsensusFactory make_ct(Pid n);

}  // namespace nucon
