#include "algo/mr_consensus.hpp"

#include <cassert>

namespace nucon {
namespace {

constexpr std::uint8_t kTagLead = 1;
constexpr std::uint8_t kTagRep = 2;
constexpr std::uint8_t kTagProp = 3;

}  // namespace

MrConsensus::MrConsensus(Pid self, Value proposal, MrOptions opts)
    : self_(self), opts_(opts), x_(proposal) {
  assert(opts_.n >= 2 && self_ >= 0 && self_ < opts_.n);
  assert(proposal != kQuestion);
}

SharedBytes MrConsensus::encode(std::uint8_t tag, int round, Value v) {
  scratch_.reset();
  scratch_.u8(tag);
  scratch_.uvarint(static_cast<std::uint64_t>(round));
  scratch_.svarint(v);
  return SharedBytes(scratch_.buffer());
}

void MrConsensus::on_message(Pid from, ByteView payload) {
  ByteReader r(payload);
  const auto tag = r.u8();
  const auto round = r.round();
  const auto v = r.svarint();
  if (!tag || !round || !v || !r.done()) return;  // drop malformed input
  RoundMsgs& msgs = inbox_[*round];
  msgs.ensure(opts_.n);
  switch (*tag) {
    case kTagLead:
      msgs.lead[from] = *v;
      break;
    case kTagRep:
      msgs.rep[from] = *v;
      break;
    case kTagProp:
      msgs.prop[from] = *v;
      break;
    default:
      break;
  }
}

bool MrConsensus::quorum_complete(
    const std::vector<std::optional<Value>>& slot, const ProcessSet& q) const {
  if (q.empty()) return false;
  for (Pid member : q) {
    if (!slot[member]) return false;
  }
  return true;
}

void MrConsensus::start_round(std::vector<Outgoing>& out) {
  ++round_;
  phase_ = Phase::kAwaitLead;
  broadcast(opts_.n, encode(kTagLead, round_, x_), out);
}

void MrConsensus::step(const Incoming* in, const FdValue& d,
                       std::vector<Outgoing>& out) {
  if (in != nullptr) on_message(in->from, in->payload);
  if (round_ == 0) start_round(out);
  advance(d, out);
}

void MrConsensus::advance(const FdValue& d, std::vector<Outgoing>& out) {
  // A single step may traverse several phases when their wait conditions
  // are already satisfied by stored messages; each pass below makes at
  // most one phase transition, and the loop repeats until a wait blocks.
  const int majority = opts_.n / 2 + 1;

  while (true) {
    RoundMsgs& msgs = inbox_[round_];
    msgs.ensure(opts_.n);

    if (phase_ == Phase::kAwaitLead) {
      if (!d.has_leader()) return;
      const Pid leader = d.leader();
      if (!msgs.lead[leader]) return;  // keep waiting for the leader's LEAD
      x_ = *msgs.lead[leader];
      broadcast(opts_.n, encode(kTagRep, round_, x_), out);
      phase_ = Phase::kAwaitReports;
      continue;
    }

    if (phase_ == Phase::kAwaitReports) {
      Value proposal = kQuestion;
      if (opts_.mode == MrQuorumMode::kMajority) {
        int received = 0;
        for (Pid q = 0; q < opts_.n; ++q) received += msgs.rep[q].has_value();
        if (received < majority) return;
        // Propose v iff a majority reported the same estimate v.
        for (Pid q = 0; q < opts_.n; ++q) {
          if (!msgs.rep[q]) continue;
          const Value v = *msgs.rep[q];
          int same = 0;
          for (Pid r = 0; r < opts_.n; ++r) same += (msgs.rep[r] == v);
          if (same >= majority) {
            proposal = v;
            break;
          }
        }
      } else {
        if (!d.has_quorum()) return;
        const ProcessSet q = d.quorum();
        if (!quorum_complete(msgs.rep, q)) return;
        // Propose v iff the quorum unanimously reported v.
        bool unanimous = true;
        const Value first = *msgs.rep[q.min()];
        for (Pid member : q) unanimous = unanimous && (*msgs.rep[member] == first);
        if (unanimous) proposal = first;
      }
      broadcast(opts_.n, encode(kTagProp, round_, proposal), out);
      phase_ = Phase::kAwaitProposals;
      continue;
    }

    // Phase::kAwaitProposals
    ProcessSet witnesses;
    if (opts_.mode == MrQuorumMode::kMajority) {
      for (Pid q = 0; q < opts_.n; ++q) {
        if (msgs.prop[q]) witnesses.insert(q);
      }
      if (witnesses.size() < majority) return;
    } else {
      if (!d.has_quorum()) return;
      witnesses = d.quorum();
      if (!quorum_complete(msgs.prop, witnesses)) return;
    }

    // Adopt any non-"?" proposal; decide on a unanimous one.
    bool all_v = true;
    std::optional<Value> seen_v;
    for (Pid member : witnesses) {
      const Value v = *msgs.prop[member];
      if (v == kQuestion) {
        all_v = false;
      } else {
        seen_v = v;
      }
    }
    if (seen_v) x_ = *seen_v;
    if (all_v && seen_v && !decided_) {
      decided_ = *seen_v;
      decided_round_ = round_;
    }

    inbox_.erase(inbox_.begin(), inbox_.lower_bound(round_));
    start_round(out);
  }
}

bool MrConsensus::save_state(ByteWriter& w) const {
  w.svarint(x_);
  w.uvarint(static_cast<std::uint64_t>(round_));
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u8(decided_.has_value());
  if (decided_) w.svarint(*decided_);
  w.uvarint(static_cast<std::uint64_t>(decided_round_));
  w.uvarint(inbox_.size());
  const auto slot = [&w, this](const std::vector<std::optional<Value>>& arr) {
    for (Pid q = 0; q < opts_.n; ++q) {
      const bool has = !arr.empty() && arr[q].has_value();
      w.u8(has);
      if (has) w.svarint(*arr[q]);
    }
  };
  for (const auto& [round, msgs] : inbox_) {
    w.uvarint(static_cast<std::uint64_t>(round));
    slot(msgs.lead);
    slot(msgs.rep);
    slot(msgs.prop);
  }
  return true;
}

bool MrConsensus::restore_state(ByteReader& r) {
  const auto x = r.svarint();
  const auto round = r.round();
  const auto phase = r.u8();
  const auto has_decided = r.u8();
  if (!x || !round || !phase || *phase > 2 || !has_decided) return false;
  std::optional<Value> decided;
  if (*has_decided != 0) {
    const auto v = r.svarint();
    if (!v) return false;
    decided = *v;
  }
  const auto decided_round = r.round();
  const auto rounds = r.uvarint();
  if (!decided_round || !rounds) return false;

  std::map<int, RoundMsgs> inbox;
  const auto slot = [&r, this](std::vector<std::optional<Value>>& arr) {
    for (Pid q = 0; q < opts_.n; ++q) {
      const auto has = r.u8();
      if (!has) return false;
      if (*has != 0) {
        const auto v = r.svarint();
        if (!v) return false;
        arr[q] = *v;
      }
    }
    return true;
  };
  for (std::uint64_t i = 0; i < *rounds; ++i) {
    const auto key = r.round();
    if (!key) return false;
    RoundMsgs& msgs = inbox[*key];
    msgs.ensure(opts_.n);
    if (!slot(msgs.lead) || !slot(msgs.rep) || !slot(msgs.prop)) return false;
  }

  x_ = *x;
  round_ = *round;
  phase_ = static_cast<Phase>(*phase);
  decided_ = decided;
  decided_round_ = *decided_round;
  inbox_ = std::move(inbox);
  return true;
}

ConsensusFactory make_mr_majority(Pid n) {
  return [n](Pid p, Value proposal) {
    return std::make_unique<MrConsensus>(
        p, proposal, MrOptions{n, MrQuorumMode::kMajority});
  };
}

ConsensusFactory make_mr_fd_quorum(Pid n) {
  return [n](Pid p, Value proposal) {
    return std::make_unique<MrConsensus>(
        p, proposal, MrOptions{n, MrQuorumMode::kFdQuorum});
  };
}

}  // namespace nucon
