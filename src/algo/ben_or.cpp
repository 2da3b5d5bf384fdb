#include "algo/ben_or.hpp"

#include <cassert>

namespace nucon {
namespace {

constexpr std::uint8_t kTagReport = 1;
constexpr std::uint8_t kTagProposal = 2;

}  // namespace

SharedBytes BenOr::encode(std::uint8_t tag, int round, Value v) {
  scratch_.reset();
  scratch_.u8(tag);
  scratch_.uvarint(static_cast<std::uint64_t>(round));
  scratch_.svarint(v);
  return SharedBytes(scratch_.buffer());
}

BenOr::BenOr(Pid self, Value proposal, Pid n, Pid t, std::uint64_t coin_seed)
    : self_(self),
      n_(n),
      t_(t),
      x_(proposal),
      coin_(coin_seed ^ (static_cast<std::uint64_t>(self) * 0x9e3779b97f4a7c15ULL)) {
  assert(n_ > 2 * t_);
  assert(proposal == 0 || proposal == 1);
}

void BenOr::step(const Incoming* in, const FdValue& d,
                 std::vector<Outgoing>& out) {
  (void)d;  // oracle-free
  if (in != nullptr) on_message(in->from, in->payload);
  if (round_ == 0) start_round(out);
  advance(out);
}

void BenOr::start_round(std::vector<Outgoing>& out) {
  inbox_.erase(inbox_.begin(), inbox_.lower_bound(round_));
  ++round_;
  phase_ = Phase::kAwaitReports;
  broadcast(n_, encode(kTagReport, round_, x_), out);
}

void BenOr::on_message(Pid from, ByteView payload) {
  ByteReader r(payload);
  const auto tag = r.u8();
  const auto round = r.round();
  const auto v = r.svarint();
  if (!tag || !round || !v || !r.done()) return;
  if (*v != 0 && *v != 1 && *v != kQuestion) return;
  RoundMsgs& msgs = inbox_[*round];
  msgs.ensure(n_);
  if (*tag == kTagReport && *v != kQuestion) {
    msgs.report[from] = *v;
  } else if (*tag == kTagProposal) {
    msgs.proposal[from] = *v;
  }
}

void BenOr::advance(std::vector<Outgoing>& out) {
  while (true) {
    RoundMsgs& msgs = inbox_[round_];
    msgs.ensure(n_);

    if (phase_ == Phase::kAwaitReports) {
      int received = 0;
      int count[2] = {0, 0};
      for (Pid q = 0; q < n_; ++q) {
        if (msgs.report[q]) {
          ++received;
          ++count[*msgs.report[q]];
        }
      }
      if (received < n_ - t_) return;
      Value proposal = kQuestion;
      for (Value v : {Value{0}, Value{1}}) {
        if (2 * count[v] > n_) proposal = v;  // strict majority of all n
      }
      broadcast(n_, encode(kTagProposal, round_, proposal), out);
      phase_ = Phase::kAwaitProposals;
      continue;
    }

    // Phase::kAwaitProposals.
    int received = 0;
    int count[2] = {0, 0};
    for (Pid q = 0; q < n_; ++q) {
      if (msgs.proposal[q]) {
        ++received;
        if (*msgs.proposal[q] != kQuestion) ++count[*msgs.proposal[q]];
      }
    }
    if (received < n_ - t_) return;

    // At most one of count[0], count[1] is nonzero (two non-"?" proposals
    // would each need a strict majority of reports).
    const Value v = count[1] > 0 ? 1 : 0;
    if (count[v] >= t_ + 1) {
      if (!decided_) {
        decided_ = v;
        decided_round_ = round_;
      }
      x_ = v;
    } else if (count[v] >= 1) {
      x_ = v;
    } else {
      x_ = static_cast<Value>(coin_.below(2));
      ++coin_flips_;
    }
    start_round(out);
  }
}

bool BenOr::save_state(ByteWriter& w) const {
  // Complete state: the inbox and the coin tape position both drive future
  // behavior.
  w.svarint(x_);
  w.uvarint(static_cast<std::uint64_t>(round_));
  w.uvarint(static_cast<std::uint64_t>(decided_round_));
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u8(decided_.has_value());
  if (decided_) w.svarint(*decided_);
  coin_.save(w);
  w.svarint(coin_flips_);
  w.uvarint(inbox_.size());
  const auto slot = [&w, this](const std::vector<std::optional<Value>>& arr) {
    for (Pid q = 0; q < n_; ++q) {
      const bool has = !arr.empty() && arr[q].has_value();
      w.u8(has);
      if (has) w.svarint(*arr[q]);
    }
  };
  for (const auto& [round, msgs] : inbox_) {
    w.uvarint(static_cast<std::uint64_t>(round));
    slot(msgs.report);
    slot(msgs.proposal);
  }
  return true;
}

bool BenOr::restore_state(ByteReader& r) {
  const auto x = r.svarint();
  const auto round = r.round();
  const auto decided_round = r.round();
  const auto phase = r.u8();
  const auto has_decided = r.u8();
  if (!x || !round || !decided_round || !phase || *phase > 1 || !has_decided) {
    return false;
  }
  std::optional<Value> decided;
  if (*has_decided != 0) {
    const auto v = r.svarint();
    if (!v) return false;
    decided = *v;
  }
  Rng coin(0);
  if (!coin.restore(r)) return false;
  const auto coin_flips = r.svarint();
  const auto rounds = r.uvarint();
  if (!coin_flips || !rounds) return false;

  std::map<int, RoundMsgs> inbox;
  // advance() counts by value: reports are 0 or 1, proposals also "?".
  const auto slot = [&r, this](std::vector<std::optional<Value>>& arr,
                               bool question) {
    for (Pid q = 0; q < n_; ++q) {
      const auto has = r.u8();
      if (!has) return false;
      if (*has != 0) {
        const auto v = r.svarint();
        if (!v || (*v != 0 && *v != 1 && !(question && *v == kQuestion))) {
          return false;
        }
        arr[q] = *v;
      }
    }
    return true;
  };
  for (std::uint64_t i = 0; i < *rounds; ++i) {
    const auto key = r.round();
    if (!key) return false;
    RoundMsgs& msgs = inbox[*key];
    msgs.ensure(n_);
    if (!slot(msgs.report, false) || !slot(msgs.proposal, true)) return false;
  }

  x_ = *x;
  round_ = *round;
  decided_round_ = *decided_round;
  phase_ = static_cast<Phase>(*phase);
  decided_ = decided;
  coin_ = coin;
  coin_flips_ = *coin_flips;
  inbox_ = std::move(inbox);
  return true;
}

ConsensusFactory make_ben_or(Pid n, Pid t, std::uint64_t seed) {
  return [n, t, seed](Pid p, Value proposal) {
    return std::make_unique<BenOr>(p, proposal, n, t, seed);
  };
}

}  // namespace nucon
