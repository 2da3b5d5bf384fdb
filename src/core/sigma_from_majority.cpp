#include "core/sigma_from_majority.hpp"

#include <cassert>

namespace nucon {

SigmaFromMajority::SigmaFromMajority(Pid self, Pid n, Pid t)
    : self_(self), n_(n), t_(t), output_(ProcessSet::full(n)) {
  assert(n_ >= 2 && t_ >= 0 && t_ < n_);
}

void SigmaFromMajority::begin_round(std::vector<Outgoing>& out) {
  heard_.erase(round_);
  ++round_;
  scratch_.reset();
  scratch_.uvarint(static_cast<std::uint64_t>(round_));
  broadcast(n_, SharedBytes(scratch_.buffer()), out);
}

void SigmaFromMajority::step(const Incoming* in, const FdValue& d,
                             std::vector<Outgoing>& out) {
  (void)d;  // "from scratch": the failure detector is never consulted
  if (round_ == 0) begin_round(out);

  if (in != nullptr) {
    ByteReader r(in->payload);
    const auto msg_round = r.uvarint();
    if (msg_round && r.done()) {
      heard_[static_cast<int>(*msg_round)].insert(in->from);
    }
  }

  const ProcessSet current = heard_[round_];
  if (current.size() >= n_ - t_) {
    output_ = current;
    ++emitted_;
    begin_round(out);
  }
}

AutomatonFactory make_sigma_from_majority(Pid n, Pid t) {
  return [n, t](Pid p) { return std::make_unique<SigmaFromMajority>(p, n, t); };
}

}  // namespace nucon
