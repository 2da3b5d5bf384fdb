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
    const auto msg_round = r.round();
    if (msg_round && r.done() && *msg_round >= round_) {
      heard_[*msg_round].insert(in->from);
    }
  }

  const auto current = heard_.find(round_);
  if (current != heard_.end() && current->second.size() >= n_ - t_) {
    output_ = current->second;
    ++emitted_;
    begin_round(out);
  }
}

bool SigmaFromMajority::save_state(ByteWriter& w) const {
  w.uvarint(static_cast<std::uint64_t>(round_));
  w.uvarint(heard_.size());
  for (const auto& [round, senders] : heard_) {
    w.uvarint(static_cast<std::uint64_t>(round));
    w.process_set(senders, n_);
  }
  w.process_set(output_, n_);
  w.svarint(emitted_);
  return true;
}

bool SigmaFromMajority::restore_state(ByteReader& r) {
  const auto round = r.round();
  const auto rounds = r.uvarint();
  if (!round || !rounds) return false;
  std::map<int, ProcessSet> heard;
  for (std::uint64_t i = 0; i < *rounds; ++i) {
    const auto k = r.round();
    const auto senders = r.process_set(n_);
    // Only live rounds, each with a sender.
    if (!k || *k < *round || !senders || senders->empty()) return false;
    heard.emplace(*k, *senders);
  }
  const auto output = r.process_set(n_);
  const auto emitted = r.svarint();
  if (!output || !emitted || *emitted < 0) return false;
  round_ = *round;
  heard_ = std::move(heard);
  output_ = *output;
  emitted_ = *emitted;
  return true;
}

AutomatonFactory make_sigma_from_majority(Pid n, Pid t) {
  return [n, t](Pid p) { return std::make_unique<SigmaFromMajority>(p, n, t); };
}

}  // namespace nucon
