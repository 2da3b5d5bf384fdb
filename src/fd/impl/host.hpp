// Hosting an implemented failure detector beside an unmodified algorithm.
//
// The consensus algorithms consume failure-detector values through the
// scheduler: each step's FdValue comes from Oracle::value(p, t). To drive
// them from an *implemented* detector (fd/impl/heartbeat.hpp) without
// touching them, the detector module runs inside an FdHost wrapper beside
// the inner algorithm (messages multiplexed over one link, StackedNuc
// style) and publishes its output variable to a shared FdBoard after every
// step; an ImplementedOracle reads the board, so the scheduler hands the
// inner algorithm — and records into StepRecord::d — exactly the module
// outputs. The recorded history of a hosted run therefore IS the
// implemented detector's history, and the check_* property checkers apply
// to it unchanged.
//
// The oracle's value for p's step at time t is what p's module published
// at p's previous step (the scheduler queries the oracle before the step
// runs). That one-step lag is an implementation detail of the sampling,
// not a violation: the module output is a variable, and the algorithm
// reads the value it had when the step started.
#pragma once

#include <memory>
#include <vector>

#include "fd/failure_detector.hpp"
#include "fd/impl/heartbeat.hpp"

namespace nucon {

/// The per-process output variables of an implemented detector, shared
/// between the n FdHost automata (writers) and the ImplementedOracle
/// (reader) of one run. Not thread-safe; one run executes on one thread.
class FdBoard {
 public:
  FdBoard(Pid n, const FdValue& initial)
      : values_(static_cast<std::size_t>(n), initial) {}

  void publish(Pid p, const FdValue& v) {
    values_[static_cast<std::size_t>(p)] = v;
  }

  [[nodiscard]] const FdValue& value_of(Pid p) const {
    return values_[static_cast<std::size_t>(p)];
  }

 private:
  std::vector<FdValue> values_;
};

/// Oracle facade over a board. Deterministic within a run: each (p, t) is
/// queried at most once (the global clock is strictly increasing), and the
/// board content at that query is a pure function of the schedule so far.
class ImplementedOracle final : public Oracle {
 public:
  explicit ImplementedOracle(std::shared_ptr<const FdBoard> board)
      : board_(std::move(board)) {}

  [[nodiscard]] FdValue value(Pid p, Time /*t*/) override {
    return board_->value_of(p);
  }

 private:
  std::shared_ptr<const FdBoard> board_;
};

/// One process of a hosted run: a heartbeat module plus the inner consensus
/// automaton, multiplexed over one link by a one-byte channel prefix. The
/// module steps first (heartbeats must flow even while the inner algorithm
/// idles) and publishes; the inner algorithm receives the scheduler's d —
/// the recorded board sample — so what the run records is what it consumed.
class FdHost final : public ConsensusAutomaton {
 public:
  FdHost(Pid self, Pid n, HeartbeatMode mode, const HeartbeatOptions& opts,
         std::shared_ptr<FdBoard> board,
         std::unique_ptr<ConsensusAutomaton> inner);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] std::optional<Value> decision() const override {
    return inner_->decision();
  }

  [[nodiscard]] const HeartbeatFd& detector() const { return hb_; }
  [[nodiscard]] ConsensusAutomaton& inner() { return *inner_; }
  [[nodiscard]] const ConsensusAutomaton& inner() const { return *inner_; }

 private:
  HeartbeatFd hb_;
  std::unique_ptr<ConsensusAutomaton> inner_;
  std::shared_ptr<FdBoard> board_;
  ChannelMux mux_;
};

/// A hosted consensus stack: the factory builds FdHost automata that all
/// publish to `board`; pair it with an ImplementedOracle over the same
/// board when simulating.
struct HostedConsensus {
  ConsensusFactory factory;
  std::shared_ptr<FdBoard> board;

  [[nodiscard]] std::unique_ptr<Oracle> make_oracle() const {
    return std::make_unique<ImplementedOracle>(board);
  }
};

[[nodiscard]] HostedConsensus make_hosted_consensus(ConsensusFactory inner,
                                                    Pid n, HeartbeatMode mode,
                                                    HeartbeatOptions opts = {});

}  // namespace nucon
