#include "core/anuc.hpp"

#include <cassert>

namespace nucon {
namespace {

constexpr std::uint8_t kTagLead = 1;
constexpr std::uint8_t kTagRep = 2;
constexpr std::uint8_t kTagProp = 3;
constexpr std::uint8_t kTagSaw = 4;
constexpr std::uint8_t kTagAck = 5;

/// A LEAD/PROP payload's parse, shared by the receivers of one broadcast
/// through the sealed buffer's decode slot (SharedBytes::decoded): parsing
/// a whole history once per receiver was the dominant per-step cost at
/// scale. `h == nullptr` records "malformed": same bytes, same verdict.
struct ParsedLeadProp {
  int round = 0;
  Value v = 0;
  std::shared_ptr<const QuorumHistory> h;
};

ParsedLeadProp parse_lead_prop(ByteView payload) {
  ByteReader r(payload);
  (void)r.u8();  // tag, validated by the caller
  ParsedLeadProp p;
  const auto round = r.round();
  const auto v = r.svarint();
  if (!round || !v) return p;
  auto h = QuorumHistory::decode(r);
  if (!h || !r.done()) return p;
  p.round = *round;
  p.v = *v;
  p.h = std::make_shared<const QuorumHistory>(std::move(*h));
  return p;
}

}  // namespace

Anuc::Anuc(Pid self, Value proposal, Pid n, AnucOptions options)
    : self_(self), n_(n), options_(options), x_(proposal), history_(n) {
  assert(n_ >= 2 && self_ >= 0 && self_ < n_);
  assert(proposal != kQuestion);
}

const ProcessSet& Anuc::get_quorum(const FdValue& d) {
  const ProcessSet& q = d.quorum();
  history_.insert(self_, q);  // Fig. 5 line 49
  return q;
}

bool Anuc::distrusts(Pid q) {
  if (!options_.use_distrust) return false;  // ablated: trust everyone
  ++distrust_calls_;
  const bool hit = history_.distrusts(self_, q);
  if (hit) ++distrust_hits_;
  return hit;
}

void Anuc::step(const Incoming* in, const FdValue& d,
                std::vector<Outgoing>& out) {
  if (in != nullptr) on_message(in->from, in->payload, in->shared, out);
  if (round_ == 0) start_round(out);
  advance(d, out);
}

void Anuc::start_round(std::vector<Outgoing>& out) {
  ++round_;
  phase_ = Phase::kAwaitLead;
  // Fig. 4 line 15: (LEAD, k, x, H) to all.
  scratch_.reset();
  scratch_.u8(kTagLead);
  scratch_.uvarint(static_cast<std::uint64_t>(round_));
  scratch_.svarint(x_);
  history_.encode(scratch_);
  broadcast(n_, SharedBytes(scratch_.buffer()), out);
}

void Anuc::on_message(Pid from, ByteView payload, const SharedBytes* shared,
                      std::vector<Outgoing>& out) {
  ByteReader r(payload);
  const auto tag = r.u8();
  if (!tag) return;

  switch (*tag) {
    case kTagLead:
    case kTagProp: {
      // One parse per sealed broadcast buffer, shared across receivers.
      ParsedLeadProp fresh;
      if (shared == nullptr) fresh = parse_lead_prop(payload);
      const ParsedLeadProp& p =
          shared != nullptr
              ? shared->decoded<ParsedLeadProp>(payload, parse_lead_prop)
              : fresh;
      if (!p.h || p.h->n() != n_) return;
      RoundMsgs& msgs = inbox_[p.round];
      msgs.ensure(n_);
      auto& slot = (*tag == kTagLead) ? msgs.lead[from] : msgs.prop[from];
      slot = HistoryMsg{p.v, p.h};
      break;
    }
    case kTagRep: {
      const auto round = r.round();
      const auto v = r.svarint();
      if (!round || !v || !r.done()) return;
      RoundMsgs& msgs = inbox_[*round];
      msgs.ensure(n_);
      msgs.rep[from] = *v;
      break;
    }
    case kTagSaw: {
      // Fig. 4 lines 35-37: record the sender's quorum, acknowledge with
      // our current round number.
      const auto quorum = r.process_set(n_);
      if (!quorum || !r.done()) return;
      history_.insert(from, *quorum);
      scratch_.reset();
      scratch_.u8(kTagAck);
      scratch_.process_set(*quorum, n_);
      scratch_.uvarint(static_cast<std::uint64_t>(round_));
      out.push_back({from, SharedBytes(scratch_.buffer())});
      break;
    }
    case kTagAck: {
      // Fig. 4 lines 39-42.
      const auto quorum = r.process_set(n_);
      const auto round = r.round();
      if (!quorum || !round || !r.done()) return;
      SawState& state = saw_[*quorum];
      state.acks.insert(from);
      state.max_ack_round = std::max(state.max_ack_round, *round);
      if (state.acks == *quorum) state.seen = state.max_ack_round;
      break;
    }
    default:
      break;
  }
}

void Anuc::advance(const FdValue& d, std::vector<Outgoing>& out) {
  // One simulator step may traverse several phases when their wait
  // conditions already hold; each loop pass makes at most one transition.
  while (true) {
    RoundMsgs& msgs = inbox_[round_];
    msgs.ensure(n_);

    if (phase_ == Phase::kAwaitLead) {
      // Fig. 4 lines 16-19.
      if (!d.has_leader()) return;
      const Pid leader = d.leader();
      auto& lead = msgs.lead[leader];
      if (!lead) return;
      history_.import(*lead->h);  // line 17, before the distrust check
      if (!distrusts(leader)) x_ = lead->v;
      scratch_.reset();
      scratch_.u8(kTagRep);
      scratch_.uvarint(static_cast<std::uint64_t>(round_));
      scratch_.svarint(x_);
      broadcast(n_, SharedBytes(scratch_.buffer()), out);
      phase_ = Phase::kAwaitReports;
      continue;
    }

    if (!d.has_quorum()) return;

    if (phase_ == Phase::kAwaitReports) {
      // Fig. 4 lines 20-24.
      const ProcessSet& q = get_quorum(d);
      bool complete = !q.empty();
      for (Pid member : q) complete = complete && msgs.rep[member].has_value();
      if (!complete) return;

      bool unanimous = true;
      const Value first = *msgs.rep[q.min()];
      for (Pid member : q) unanimous = unanimous && (*msgs.rep[member] == first);

      scratch_.reset();
      scratch_.u8(kTagProp);
      scratch_.uvarint(static_cast<std::uint64_t>(round_));
      scratch_.svarint(unanimous ? first : kQuestion);
      history_.encode(scratch_);
      broadcast(n_, SharedBytes(scratch_.buffer()), out);
      phase_ = Phase::kAwaitProposals;
      continue;
    }

    // Phase::kAwaitProposals — Fig. 4 lines 25-33. Each pass is one
    // iteration of the outer repeat: re-read the quorum, require all its
    // proposals, import their histories, and re-check distrust.
    const ProcessSet& q = get_quorum(d);
    bool complete = !q.empty();
    for (Pid member : q) complete = complete && msgs.prop[member].has_value();
    if (!complete) return;

    // Line 27. import is a pointwise union, so a member already folded in
    // on an earlier retry pass contributes nothing — skip the walk.
    for (Pid member : q) {
      if (!msgs.props_imported.contains(member)) {
        msgs.props_imported.insert(member);
        history_.import(*msgs.prop[member]->h);
      }
    }

    for (Pid member : q) {
      if (distrusts(member)) return;  // line 28 fails; retry next step
    }

    // Line 29: adopt any non-"?" proposal (Lemma 6.23: all non-"?"
    // proposals a process collects in a round are equal).
    bool all_v = true;
    std::optional<Value> seen_v;
    for (Pid member : q) {
      const Value v = msgs.prop[member]->v;
      if (v == kQuestion) {
        all_v = false;
      } else {
        seen_v = v;
      }
    }
    if (seen_v) x_ = *seen_v;

    // Line 30: decide only with unanimity AND the quorum-awareness bound
    // seen[Q] < k (the latter can be ablated for the E11 experiment).
    SawState& state = saw_[q];
    const bool aware = !options_.use_quorum_awareness ||
                       (state.seen && *state.seen < round_);
    if (all_v && seen_v && aware && !decided_) {
      decided_ = x_;
      decided_round_ = round_;
    }

    // Lines 31-33: first use of this quorum to collect proposals.
    if (!state.sent) {
      state.sent = true;
      scratch_.reset();
      scratch_.u8(kTagSaw);
      scratch_.process_set(q, n_);
      // One sealed buffer shared across the quorum multicast.
      const SharedBytes payload(scratch_.buffer());
      for (Pid member : q) out.push_back({member, payload});
    }

    inbox_.erase(inbox_.begin(), inbox_.lower_bound(round_));
    start_round(out);
  }
}

bool Anuc::save_state(ByteWriter& w) const {
  // The complete state: the buffered inbox and SAW/ACK bookkeeping
  // determine future behavior, so the model checker's dedup must
  // distinguish them.
  w.svarint(x_);
  w.uvarint(static_cast<std::uint64_t>(round_));
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u8(decided_.has_value());
  if (decided_) w.svarint(*decided_);
  w.uvarint(static_cast<std::uint64_t>(decided_round_));
  history_.encode(w);
  w.uvarint(inbox_.size());
  for (const auto& [round, msgs] : inbox_) {
    w.uvarint(static_cast<std::uint64_t>(round));
    const auto history_slot =
        [&w, this](const std::vector<std::optional<HistoryMsg>>& arr) {
          for (Pid q = 0; q < n_; ++q) {
            w.u8(!arr.empty() && arr[q].has_value());
            if (!arr.empty() && arr[q]) {
              w.svarint(arr[q]->v);
              arr[q]->h->encode(w);
            }
          }
        };
    history_slot(msgs.lead);
    for (Pid q = 0; q < n_; ++q) {
      const bool has = !msgs.rep.empty() && msgs.rep[q].has_value();
      w.u8(has);
      if (has) w.svarint(*msgs.rep[q]);
    }
    history_slot(msgs.prop);
  }
  w.uvarint(saw_.size());
  for (const auto& [quorum, state] : saw_) {
    w.process_set(quorum, n_);
    w.u8(state.sent ? 1 : 0);
    w.process_set(state.acks, n_);
    w.uvarint(static_cast<std::uint64_t>(state.max_ack_round));
    w.u8(state.seen.has_value());
    if (state.seen) w.uvarint(static_cast<std::uint64_t>(*state.seen));
  }
  w.svarint(distrust_calls_);
  w.svarint(distrust_hits_);
  return true;
}

bool Anuc::restore_state(ByteReader& r) {
  const auto x = r.svarint();
  const auto round = r.round();
  const auto phase = r.u8();
  const auto has_decided = r.flag();
  if (!x || !round || !phase || *phase > 2 || !has_decided) return false;
  std::optional<Value> decided;
  if (*has_decided) {
    const auto v = r.svarint();
    if (!v) return false;
    decided = *v;
  }
  const auto decided_round = r.round();
  if (!decided_round) return false;
  auto history = QuorumHistory::decode(r);
  if (!history || history->n() != n_) return false;

  const auto rounds = r.uvarint();
  if (!rounds) return false;
  std::map<int, RoundMsgs> inbox;
  const auto history_slot =
      [&r, this](std::vector<std::optional<HistoryMsg>>& arr) {
        for (Pid q = 0; q < n_; ++q) {
          const auto has = r.flag();
          if (!has) return false;
          if (*has) {
            const auto v = r.svarint();
            auto h = QuorumHistory::decode(r);
            if (!v || !h || h->n() != n_) return false;
            arr[q] = HistoryMsg{
                *v, std::make_shared<const QuorumHistory>(std::move(*h))};
          }
        }
        return true;
      };
  for (std::uint64_t i = 0; i < *rounds; ++i) {
    const auto key = r.round();
    if (!key) return false;
    RoundMsgs& msgs = inbox[*key];
    msgs.ensure(n_);
    if (!history_slot(msgs.lead)) return false;
    for (Pid q = 0; q < n_; ++q) {
      const auto has = r.flag();
      if (!has) return false;
      if (*has) {
        const auto v = r.svarint();
        if (!v) return false;
        msgs.rep[q] = *v;
      }
    }
    if (!history_slot(msgs.prop)) return false;
  }

  const auto saw_count = r.uvarint();
  if (!saw_count) return false;
  std::map<ProcessSet, SawState> saw;
  for (std::uint64_t i = 0; i < *saw_count; ++i) {
    const auto quorum = r.process_set(n_);
    const auto sent = r.flag();
    const auto acks = r.process_set(n_);
    const auto max_ack_round = r.round();
    const auto has_seen = r.flag();
    if (!quorum || !sent || !acks || !max_ack_round || !has_seen) return false;
    SawState& state = saw[*quorum];
    state.sent = *sent;
    state.acks = *acks;
    state.max_ack_round = *max_ack_round;
    if (*has_seen) {
      const auto seen = r.round();
      if (!seen) return false;
      state.seen = *seen;
    }
  }
  const auto calls = r.svarint();
  const auto hits = r.svarint();
  if (!calls || !hits) return false;

  x_ = *x;
  round_ = *round;
  phase_ = static_cast<Phase>(*phase);
  decided_ = decided;
  decided_round_ = *decided_round;
  history_ = std::move(*history);
  inbox_ = std::move(inbox);
  saw_ = std::move(saw);
  distrust_calls_ = *calls;
  distrust_hits_ = *hits;
  return true;
}

ConsensusFactory make_anuc(Pid n, AnucOptions options) {
  return [n, options](Pid p, Value proposal) {
    return std::make_unique<Anuc>(p, proposal, n, options);
  };
}

}  // namespace nucon
