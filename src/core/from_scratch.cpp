#include "core/from_scratch.hpp"

namespace nucon {
namespace {

constexpr std::uint8_t kChannelOmega = 0;
constexpr std::uint8_t kChannelSigma = 1;
constexpr std::uint8_t kChannelConsensus = 2;

}  // namespace

FromScratchConsensus::FromScratchConsensus(Pid self, Value proposal, Pid n,
                                           Pid t)
    : omega_(self, n, HeartbeatMode::kOmega, {}),
      sigma_(self, n, t),
      consensus_(self, proposal, MrOptions{n, MrQuorumMode::kFdQuorum}) {}

void FromScratchConsensus::step(const Incoming* in, const FdValue& d,
                                std::vector<Outgoing>& out) {
  (void)d;  // no oracle anywhere in this stack

  mux_.step(in, omega_, kChannelOmega, FdValue{}, out);
  mux_.step(in, sigma_, kChannelSigma, FdValue{}, out);

  const FdValue synthesized =
      FdValue::combine(omega_.output(), sigma_.emulated_output());
  mux_.step(in, consensus_, kChannelConsensus, synthesized, out);
}

ConsensusFactory make_from_scratch(Pid n, Pid t) {
  return [n, t](Pid p, Value proposal) {
    return std::make_unique<FromScratchConsensus>(p, proposal, n, t);
  };
}

}  // namespace nucon
