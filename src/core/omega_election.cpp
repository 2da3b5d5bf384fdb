#include "core/omega_election.hpp"

#include <cassert>

namespace nucon {

OmegaElection::OmegaElection(Pid self, Pid n, OmegaElectionOptions opts)
    : self_(self), n_(n), opts_(opts), leader_(self) {
  assert(n_ >= 1 && self_ >= 0 && self_ < n_);
  if (opts_.heartbeat_every <= 0) opts_.heartbeat_every = 2 * n;
  if (opts_.initial_timeout <= 0) {
    opts_.initial_timeout = 8 * opts_.heartbeat_every;
  }
  last_heartbeat_.assign(static_cast<std::size_t>(n), 0);
  timeout_.assign(static_cast<std::size_t>(n), opts_.initial_timeout);
  ByteWriter w;
  w.u8(1);
  heartbeat_ = SharedBytes(w.take());
}

void OmegaElection::refresh(Pid q) {
  if (suspected_.contains(q)) {
    // False suspicion: the peer is alive after all. Back off its timeout
    // so each correct peer is falsely suspected only finitely often.
    suspected_.erase(q);
    timeout_[static_cast<std::size_t>(q)] *= 2;
    ++false_suspicions_;
  }
  last_heartbeat_[static_cast<std::size_t>(q)] = own_steps_;
}

void OmegaElection::step(const Incoming* in, const FdValue& d,
                         std::vector<Outgoing>& out) {
  (void)d;  // from scratch: no failure detector consulted
  ++own_steps_;

  if (in != nullptr) {
    ByteReader r(in->payload);
    if (const auto tag = r.u8(); tag && *tag == 1 && r.done()) {
      refresh(in->from);
    }
  }

  if (own_steps_ % opts_.heartbeat_every == 0) {
    SharedBytes::counters().broadcasts += 1;
    for (Pid q = 0; q < n_; ++q) {
      if (q != self_) out.push_back({q, heartbeat_});
    }
  }

  for (Pid q = 0; q < n_; ++q) {
    if (q == self_) continue;
    if (own_steps_ - last_heartbeat_[static_cast<std::size_t>(q)] >
        timeout_[static_cast<std::size_t>(q)]) {
      suspected_.insert(q);
    }
  }

  const ProcessSet trusted = ProcessSet::full(n_) - suspected_;
  leader_ = trusted.empty() ? self_ : trusted.min();
}

AutomatonFactory make_omega_election(Pid n, OmegaElectionOptions opts) {
  return [n, opts](Pid p) {
    return std::make_unique<OmegaElection>(p, n, opts);
  };
}

}  // namespace nucon
