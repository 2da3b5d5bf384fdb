// The Theorem 6.28 construction: nonuniform consensus from raw
// (Omega, Sigma^nu) in any environment.
//
// "Given failure detectors Omega and Sigma^nu ... we use
//  T_{Sigma^nu -> Sigma^nu+} to transform Sigma^nu to Sigma^nu+.
//  Concurrently, we run A_nuc, which solves nonuniform consensus using
//  Omega (provided directly) and Sigma^nu+ (obtained through the output
//  variables of the transformation)."
//
// Both components run inside one automaton: each step feeds the raw
// Sigma^nu sample to the embedded transformation, then steps A_nuc with a
// synthesized detector value whose leader component is the raw Omega
// output and whose quorum component is the transformation's current
// Sigma^nu+-output_p. The two components' messages share the link through
// a one-byte multiplexing prefix.
#pragma once

#include "core/anuc.hpp"
#include "core/sigma_nu_to_plus.hpp"

namespace nucon {

class StackedNuc final : public ConsensusAutomaton {
 public:
  StackedNuc(Pid self, Value proposal, Pid n, int gossip_every = 0);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] std::optional<Value> decision() const override {
    return consensus_.decision();
  }

  /// Complete state = both components' complete states (the mux keeps
  /// only send scratch, cleared before every use).
  [[nodiscard]] bool save_state(ByteWriter& w) const override {
    return transform_.save_state(w) && consensus_.save_state(w);
  }
  [[nodiscard]] bool restore_state(ByteReader& r) override {
    return transform_.restore_state(r) && consensus_.restore_state(r);
  }

  [[nodiscard]] const SigmaNuToPlus& transformation() const {
    return transform_;
  }
  [[nodiscard]] const Anuc& consensus() const { return consensus_; }

 private:
  StackedNuc(const StackedNuc&) = default;
  [[nodiscard]] StackedNuc* clone_raw() const override {
    return new StackedNuc(*this);
  }

  SigmaNuToPlus transform_;
  Anuc consensus_;
  ChannelMux mux_;
};

[[nodiscard]] ConsensusFactory make_stacked_nuc(Pid n, int gossip_every = 0);

}  // namespace nucon
