#include "sim/automaton.hpp"

namespace nucon {

void ChannelMux::receive(const Incoming* in) {
  channel_ = -1;
  if (in == nullptr || in->payload->empty()) return;
  channel_ = in->payload->front();
  from_ = in->from;
  payload_.assign(in->payload->begin() + 1, in->payload->end());
}

void ChannelMux::step(Automaton& component, std::uint8_t channel,
                      const FdValue& d, std::vector<Outgoing>& out) {
  const Incoming in{from_, &payload_};
  sends_.clear();
  component.step(channel == channel_ ? &in : nullptr, d, sends_);
  reframe_sends(sends_, frame_,
                [channel](ByteWriter& w, const Bytes& payload) {
                  w.u8(channel);
                  w.raw(payload);
                },
                out);
}

}  // namespace nucon
