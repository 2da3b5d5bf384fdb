#include "core/sigma_nu_to_plus.hpp"

#include <cstdint>
#include <limits>

namespace nucon {

SigmaNuToPlus::SigmaNuToPlus(Pid self, Pid n, int gossip_every)
    : core_(self, n),
      n_(n),
      gossip_every_(effective_gossip_every(gossip_every, n)),
      output_(ProcessSet::full(n)) {}

void SigmaNuToPlus::step(const Incoming* in, const FdValue& d,
                         std::vector<Outgoing>& out) {
  const NodeRef fresh = core_.on_step(in, d);
  if (core_.k() % static_cast<std::uint32_t>(gossip_every_) == 0) {
    core_.gossip_deltas(out);
  }

  if (core_.k() == 1) u_ = fresh;  // line 13
  try_emit(fresh);
}

bool SigmaNuToPlus::try_emit(NodeRef fresh) {
  const std::vector<NodeRef>& chain = core_.fair_chain(u_);
  const SampleDag& dag = core_.dag();

  // Scan suffixes from the back, accumulating participants(g) and
  // trusted(g) incrementally; remember the longest suffix satisfying the
  // line 15 condition.
  ProcessSet participants;
  ProcessSet trusted;
  std::optional<std::size_t> best_start;
  for (std::size_t i = chain.size(); i-- > 0;) {
    const NodeRef v = chain[i];
    participants.insert(v.q);
    const FdValue& d = dag.node(v).d;
    if (d.has_quorum()) trusted |= d.quorum();
    if (trusted.is_subset_of(participants) &&
        participants.contains(core_.self())) {
      best_start = i;
    }
  }
  if (!best_start) return false;

  output_ = participants_of(
      std::span<const NodeRef>(chain).subspan(*best_start));  // line 16
  u_ = fresh;                                                 // line 17
  ++outputs_;
  return true;
}

bool SigmaNuToPlus::save_state(ByteWriter& w) const {
  core_.save(w);
  w.process_set(output_, n_);
  w.svarint(u_.q);
  w.uvarint(u_.k);
  w.svarint(outputs_);
  return true;
}

bool SigmaNuToPlus::restore_state(ByteReader& r) {
  if (!core_.restore(r)) return false;
  const auto output = r.process_set(n_);
  if (!output) return false;
  // The anchor u_p is NodeRef{} before the first step (line 13 sets it) and
  // one of p's own samples afterwards.
  NodeRef u;
  if (core_.k() == 0) {
    if (r.svarint() != u.q || r.uvarint() != u.k) return false;
  } else {
    const auto uq = r.pid();
    const auto uk = r.uvarint();
    if (!uq || !uk || *uk > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    u = NodeRef{*uq, static_cast<std::uint32_t>(*uk)};
    if (u.q != core_.self() || !core_.dag().contains(u)) return false;
  }
  const auto outputs = r.svarint();
  if (!outputs || *outputs < 0) return false;
  output_ = *output;
  u_ = u;
  outputs_ = *outputs;
  return true;
}

AutomatonFactory make_sigma_nu_to_plus(Pid n, int gossip_every) {
  return [n, gossip_every](Pid p) {
    return std::make_unique<SigmaNuToPlus>(p, n, gossip_every);
  };
}

}  // namespace nucon
