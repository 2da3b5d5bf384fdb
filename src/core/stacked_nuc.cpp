#include "core/stacked_nuc.hpp"

namespace nucon {
namespace {

constexpr std::uint8_t kChannelTransform = 0;
constexpr std::uint8_t kChannelConsensus = 1;

}  // namespace

StackedNuc::StackedNuc(Pid self, Value proposal, Pid n, int gossip_every)
    : transform_(self, n, gossip_every), consensus_(self, proposal, n) {}

void StackedNuc::step(const Incoming* in, const FdValue& d,
                      std::vector<Outgoing>& out) {
  // The transformation samples the raw Sigma^nu quorum.
  mux_.step(in, transform_, kChannelTransform, d, out);

  // A_nuc sees (Omega directly, Sigma^nu+ through the output variable).
  FdValue synthesized = transform_.emulated_output();
  if (d.has_leader()) synthesized.set_leader(d.leader());
  mux_.step(in, consensus_, kChannelConsensus, synthesized, out);
}

ConsensusFactory make_stacked_nuc(Pid n, int gossip_every) {
  return [n, gossip_every](Pid p, Value proposal) {
    return std::make_unique<StackedNuc>(p, proposal, n, gossip_every);
  };
}

}  // namespace nucon
