#include "sim/automaton.hpp"

namespace nucon {

void ChannelMux::step(const Incoming* in, Automaton& component,
                      std::uint8_t channel, const FdValue& d,
                      std::vector<Outgoing>& out) {
  const bool mine =
      in != nullptr && !in->payload.empty() && in->payload.front() == channel;
  Incoming part;
  if (mine) part = {in->from, in->payload.subspan(1), in->shared};
  sends_.clear();
  component.step(mine ? &part : nullptr, d, sends_);
  reframe_sends(sends_, frame_,
                [channel](ByteWriter& w, const Bytes& payload) {
                  w.u8(channel);
                  w.raw(payload);
                },
                out);
}

}  // namespace nucon
