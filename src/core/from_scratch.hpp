// Consensus with no failure-detector oracle at all (majority
// environments): the full implementability stack.
//
// Theorem 7.1-IF says that with t < n/2 the quorum detector Sigma is
// implementable from scratch; Omega is implementable from scratch in any
// environment by adaptive-timeout heartbeats (fd/impl/heartbeat.hpp, in
// Omega mode). Stacking both under the MR quorum consensus algorithm — all
// three components inside one automaton sharing the link through a
// channel byte — yields uniform consensus in E_t with t < n/2 with *zero*
// oracles, the strongest "everything here actually runs" statement the
// library can make. (With t >= n/2 no such stack can exist: that is the
// ONLY-IF direction, core/partition_argument.hpp.)
#pragma once

#include "algo/mr_consensus.hpp"
#include "core/sigma_from_majority.hpp"
#include "fd/impl/heartbeat.hpp"

namespace nucon {

class FromScratchConsensus final : public ConsensusAutomaton {
 public:
  /// `t` is the environment's fault bound; requires t < n/2 for
  /// termination (safety holds regardless).
  FromScratchConsensus(Pid self, Value proposal, Pid n, Pid t);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] std::optional<Value> decision() const override {
    return consensus_.decision();
  }

  /// Complete state = the three components' complete states (the mux
  /// keeps only send scratch).
  [[nodiscard]] bool save_state(ByteWriter& w) const override {
    return omega_.save_state(w) && sigma_.save_state(w) &&
           consensus_.save_state(w);
  }
  [[nodiscard]] bool restore_state(ByteReader& r) override {
    return omega_.restore_state(r) && sigma_.restore_state(r) &&
           consensus_.restore_state(r);
  }

  [[nodiscard]] const HeartbeatFd& omega() const { return omega_; }
  [[nodiscard]] const SigmaFromMajority& sigma() const { return sigma_; }
  [[nodiscard]] const MrConsensus& consensus() const { return consensus_; }

 private:
  HeartbeatFd omega_;
  SigmaFromMajority sigma_;
  MrConsensus consensus_;
  ChannelMux mux_;
};

[[nodiscard]] ConsensusFactory make_from_scratch(Pid n, Pid t);

}  // namespace nucon
