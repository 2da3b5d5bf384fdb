#include "sim/step.hpp"

#include <cassert>

namespace nucon {

void deliver(Automaton& a, const std::optional<Message>& m, const FdValue& d,
             std::vector<Outgoing>& sends) {
  sends.clear();
  if (!m) {
    a.step(nullptr, d, sends);
    return;
  }
  const Incoming in{m->id.sender, m->payload.get(), &m->payload};
  a.step(&in, d, sends);
}

SendNamer::SendNamer(Pid n) : sent_(static_cast<std::size_t>(n), 0) {}

Message SendNamer::name(Pid p, Outgoing o, Time t) {
  assert(o.to >= 0 && static_cast<std::size_t>(o.to) < sent_.size());
  Message m;
  m.id = MsgId{p, ++sent_[static_cast<std::size_t>(p)]};
  m.to = o.to;
  m.payload = std::move(o.payload);  // moves the share, not the bytes
  m.sent_at = t;
  m.ready_at = t;
  return m;
}

}  // namespace nucon
