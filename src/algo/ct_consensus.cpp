#include "algo/ct_consensus.hpp"

#include <cassert>

namespace nucon {
namespace {

constexpr std::uint8_t kTagEstimate = 1;
constexpr std::uint8_t kTagSelect = 2;
constexpr std::uint8_t kTagAck = 3;
constexpr std::uint8_t kTagNack = 4;
constexpr std::uint8_t kTagDecide = 5;

}  // namespace

CtConsensus::CtConsensus(Pid self, Value proposal, Pid n)
    : self_(self), n_(n), x_(proposal) {
  assert(n_ >= 2 && self_ >= 0 && self_ < n_);
}

void CtConsensus::step(const Incoming* in, const FdValue& d,
                       std::vector<Outgoing>& out) {
  if (in != nullptr) on_message(in->from, in->payload, out);
  if (round_ == 0) start_round(out);
  advance(d, out);
}

void CtConsensus::start_round(std::vector<Outgoing>& out) {
  inbox_.erase(inbox_.begin(), inbox_.lower_bound(round_));
  ++round_;
  scratch_.reset();
  scratch_.u8(kTagEstimate);
  scratch_.uvarint(static_cast<std::uint64_t>(round_));
  scratch_.svarint(x_);
  scratch_.uvarint(static_cast<std::uint64_t>(ts_));
  out.push_back({coordinator_of(round_), SharedBytes(scratch_.buffer())});
  phase_ = coordinator_of(round_) == self_ ? Phase::kAwaitEstimates
                                           : Phase::kAwaitSelection;
}

void CtConsensus::flood_decide(Value v, std::vector<Outgoing>& out) {
  if (!decided_) {
    decided_ = v;
    decided_round_ = round_;
  }
  if (flooded_decide_) return;
  flooded_decide_ = true;
  scratch_.reset();
  scratch_.u8(kTagDecide);
  scratch_.svarint(v);
  broadcast(n_, SharedBytes(scratch_.buffer()), out);
}

void CtConsensus::on_message(Pid from, ByteView payload,
                             std::vector<Outgoing>& out) {
  ByteReader r(payload);
  const auto tag = r.u8();
  if (!tag) return;

  if (*tag == kTagDecide) {
    const auto v = r.svarint();
    if (v && r.done()) flood_decide(*v, out);
    return;
  }

  const auto round = r.round();
  if (!round) return;
  const int rnd = *round;
  if (rnd < round_) return;  // this round is over for us

  RoundInbox& inbox = inbox_[rnd];
  switch (*tag) {
    case kTagEstimate: {
      const auto v = r.svarint();
      const auto ts = r.round();
      if (v && ts && r.done()) inbox.estimates[from] = {*v, *ts};
      break;
    }
    case kTagSelect:
      if (const auto v = r.svarint();
          v && r.done() && from == coordinator_of(rnd)) {
        inbox.selection = *v;
      }
      break;
    case kTagAck:
    case kTagNack:
      if (r.done()) {
        ++inbox.replies;
        if (*tag == kTagAck) ++inbox.acks;
      }
      break;
    default:
      break;
  }
}

void CtConsensus::advance(const FdValue& d, std::vector<Outgoing>& out) {
  const int majority = n_ / 2 + 1;

  // Several phases may already be satisfied by buffered messages; bound
  // the number of round transitions per step so a detector value that
  // suspects every coordinator cannot spin forever within one atomic step.
  for (int burst = 0; burst < 8; ++burst) {
    RoundInbox& inbox = inbox_[round_];

    if (phase_ == Phase::kAwaitEstimates) {
      if (static_cast<int>(inbox.estimates.size()) < majority) return;
      // Select the estimate carrying the highest timestamp.
      std::pair<Value, int> best{0, -1};
      for (const auto& [p, est] : inbox.estimates) {
        if (est.second > best.second) best = est;
      }
      select_value_ = best.first;
      scratch_.reset();
      scratch_.u8(kTagSelect);
      scratch_.uvarint(static_cast<std::uint64_t>(round_));
      scratch_.svarint(best.first);
      broadcast(n_, SharedBytes(scratch_.buffer()), out);
      phase_ = Phase::kAwaitSelection;
      continue;
    }

    if (phase_ == Phase::kAwaitSelection) {
      const Pid coord = coordinator_of(round_);
      if (inbox.selection) {
        x_ = *inbox.selection;
        ts_ = round_;
        scratch_.reset();
        scratch_.u8(kTagAck);
        scratch_.uvarint(static_cast<std::uint64_t>(round_));
        out.push_back({coord, SharedBytes(scratch_.buffer())});
      } else if (d.has_suspects() && d.suspects().contains(coord)) {
        scratch_.reset();
        scratch_.u8(kTagNack);
        scratch_.uvarint(static_cast<std::uint64_t>(round_));
        out.push_back({coord, SharedBytes(scratch_.buffer())});
      } else {
        return;  // keep waiting for the selection or for suspicion
      }
      if (coord == self_) {
        phase_ = Phase::kAwaitReplies;
        continue;
      }
      start_round(out);
      continue;
    }

    // Phase::kAwaitReplies (coordinator only).
    if (inbox.replies < majority) return;
    if (inbox.acks >= majority) flood_decide(select_value_, out);
    start_round(out);
  }
}

bool CtConsensus::save_state(ByteWriter& w) const {
  // Complete state: the buffered per-round inbox and the coordinator's
  // selection drive future behavior, so the model checker's dedup must
  // see them.
  w.svarint(x_);
  w.uvarint(static_cast<std::uint64_t>(ts_));
  w.uvarint(static_cast<std::uint64_t>(round_));
  w.u8(static_cast<std::uint8_t>(phase_));
  w.svarint(select_value_);
  w.u8(decided_.has_value());
  if (decided_) w.svarint(*decided_);
  w.uvarint(static_cast<std::uint64_t>(decided_round_));
  w.u8(flooded_decide_ ? 1 : 0);
  w.uvarint(inbox_.size());
  for (const auto& [round, box] : inbox_) {
    w.uvarint(static_cast<std::uint64_t>(round));
    w.uvarint(box.estimates.size());
    for (const auto& [from, est] : box.estimates) {
      w.pid(from);
      w.svarint(est.first);
      w.uvarint(static_cast<std::uint64_t>(est.second));
    }
    w.u8(box.selection.has_value());
    if (box.selection) w.svarint(*box.selection);
    w.uvarint(static_cast<std::uint64_t>(box.acks));
    w.uvarint(static_cast<std::uint64_t>(box.replies));
  }
  return true;
}

bool CtConsensus::restore_state(ByteReader& r) {
  const auto x = r.svarint();
  const auto ts = r.round();
  const auto round = r.round();
  const auto phase = r.u8();
  const auto select_value = r.svarint();
  const auto has_decided = r.flag();
  if (!x || !ts || !round || !phase || *phase > 2 || !select_value ||
      !has_decided) {
    return false;
  }
  std::optional<Value> decided;
  if (*has_decided) {
    const auto v = r.svarint();
    if (!v) return false;
    decided = *v;
  }
  const auto decided_round = r.round();
  const auto flooded = r.flag();
  const auto rounds = r.uvarint();
  if (!decided_round || !flooded || !rounds) return false;

  std::map<int, RoundInbox> inbox;
  for (std::uint64_t i = 0; i < *rounds; ++i) {
    const auto key = r.round();
    const auto estimates = r.uvarint();
    if (!key || !estimates) return false;
    RoundInbox& box = inbox[*key];
    for (std::uint64_t j = 0; j < *estimates; ++j) {
      const auto from = r.pid();
      const auto value = r.svarint();
      const auto est_ts = r.round();
      if (!from || *from >= n_ || !value || !est_ts) return false;
      box.estimates[*from] = {*value, *est_ts};
    }
    const auto has_selection = r.flag();
    if (!has_selection) return false;
    if (*has_selection) {
      const auto v = r.svarint();
      if (!v) return false;
      box.selection = *v;
    }
    const auto acks = r.round();
    const auto replies = r.round();
    if (!acks || !replies) return false;
    box.acks = *acks;
    box.replies = *replies;
  }

  x_ = *x;
  ts_ = *ts;
  round_ = *round;
  phase_ = static_cast<Phase>(*phase);
  select_value_ = *select_value;
  decided_ = decided;
  decided_round_ = *decided_round;
  flooded_decide_ = *flooded;
  inbox_ = std::move(inbox);
  return true;
}

ConsensusFactory make_ct(Pid n) {
  return [n](Pid p, Value proposal) {
    return std::make_unique<CtConsensus>(p, proposal, n);
  };
}

}  // namespace nucon
