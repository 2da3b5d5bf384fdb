#include "reg/abd.hpp"

#include <cassert>
#include <limits>

namespace nucon {
namespace {

constexpr std::uint8_t kTagReadQuery = 1;
constexpr std::uint8_t kTagReadReply = 2;
constexpr std::uint8_t kTagWrite = 3;
constexpr std::uint8_t kTagWriteAck = 4;

void encode_tagged(ByteWriter& w, std::uint8_t tag, std::uint64_t opid) {
  w.u8(tag);
  w.uvarint(opid);
}

}  // namespace

AbdRegister::AbdRegister(Pid self, Pid n, std::vector<RegOp> workload)
    : self_(self), n_(n), workload_(std::move(workload)) {
  assert(n_ >= 1 && self_ >= 0 && self_ < n_);
}

void AbdRegister::step(const Incoming* in, const FdValue& d,
                       std::vector<Outgoing>& out) {
  ++own_steps_;
  if (in != nullptr) on_message(in->from, in->payload, out);
  advance(d, out);
}

void AbdRegister::on_message(Pid from, ByteView payload,
                             std::vector<Outgoing>& out) {
  ByteReader r(payload);
  const auto tag = r.u8();
  const auto opid = r.uvarint();
  if (!tag || !opid) return;

  switch (*tag) {
    case kTagReadQuery: {
      if (!r.done()) return;
      scratch_.reset();
      encode_tagged(scratch_, kTagReadReply, *opid);
      scratch_.uvarint(static_cast<std::uint64_t>(tag_.ts));
      scratch_.pid(tag_.writer < 0 ? 0 : tag_.writer);
      scratch_.u8(tag_.writer < 0);
      scratch_.svarint(value_);
      out.push_back({from, SharedBytes(scratch_.buffer())});
      break;
    }
    case kTagReadReply: {
      const auto ts = r.uvarint();
      const auto writer = r.pid();
      const auto initial = r.u8();
      const auto value = r.svarint();
      if (!ts || !writer || !initial || !value || !r.done()) return;
      if (!active_ || pending_.phase != 1 || *opid != pending_.opid) return;
      pending_.replied.insert(from);
      const RegTag reply_tag{static_cast<std::int64_t>(*ts),
                             *initial ? Pid{-1} : *writer};
      if (pending_.best_tag < reply_tag) {
        pending_.best_tag = reply_tag;
        pending_.best_value = *value;
      }
      break;
    }
    case kTagWrite: {
      const auto ts = r.uvarint();
      const auto writer = r.pid();
      const auto value = r.svarint();
      if (!ts || !writer || !value || !r.done()) return;
      const RegTag incoming{static_cast<std::int64_t>(*ts), *writer};
      if (tag_ < incoming) {
        tag_ = incoming;
        value_ = *value;
      }
      scratch_.reset();
      encode_tagged(scratch_, kTagWriteAck, *opid);
      out.push_back({from, SharedBytes(scratch_.buffer())});
      break;
    }
    case kTagWriteAck:
      if (!r.done()) return;
      if (!active_ || pending_.phase != 2 || *opid != pending_.opid) return;
      pending_.replied.insert(from);
      break;
    default:
      break;
  }
}

void AbdRegister::begin_phase(std::vector<Outgoing>& out) {
  pending_.opid = ++opid_counter_;
  pending_.replied = ProcessSet{};
  scratch_.reset();
  ByteWriter& w = scratch_;
  if (pending_.phase == 1) {
    encode_tagged(w, kTagReadQuery, pending_.opid);
  } else {
    // Phase 2: writes install a fresh tag; reads write back what they saw.
    RegTag install = pending_.best_tag;
    Value install_value = pending_.best_value;
    if (pending_.op.kind == RegOp::Kind::kWrite) {
      install = RegTag{pending_.best_tag.ts + 1, self_};
      install_value = pending_.op.value;
    }
    pending_.best_tag = install;
    pending_.best_value = install_value;
    encode_tagged(w, kTagWrite, pending_.opid);
    w.uvarint(static_cast<std::uint64_t>(install.ts));
    w.pid(install.writer < 0 ? 0 : install.writer);
    w.svarint(install_value);
  }
  broadcast(n_, SharedBytes(w.buffer()), out);
}

void AbdRegister::advance(const FdValue& d, std::vector<Outgoing>& out) {
  if (!active_) {
    if (next_op_ >= workload_.size()) return;
    pending_ = Pending{};
    pending_.op = workload_[next_op_++];
    pending_.phase = 1;
    pending_.invoked_step = -1;  // stamped by the observer
    active_ = true;
    begin_phase(out);
    return;
  }

  if (!d.has_quorum()) return;
  const ProcessSet quorum = d.quorum();
  if (quorum.empty() || !quorum.is_subset_of(pending_.replied)) return;

  if (pending_.phase == 1) {
    pending_.phase = 2;
    begin_phase(out);
    return;
  }

  // Phase 2 complete: the operation responds.
  RegOpRecord record;
  record.client = self_;
  record.kind = pending_.op.kind;
  record.value = pending_.op.kind == RegOp::Kind::kWrite ? pending_.op.value
                                                         : pending_.best_value;
  record.tag = pending_.best_tag;
  record.invoked_step = pending_.invoked_step;
  record.responded_step = -1;  // stamped by the observer
  completed_.push_back(record);
  active_ = false;
}

void AbdRegister::stamp_times(Time now) {
  if (active_ && pending_.invoked_step < 0) pending_.invoked_step = now;
  for (auto it = completed_.rbegin();
       it != completed_.rend() && it->responded_step < 0; ++it) {
    it->responded_step = now;
  }
}

std::optional<RegOpRecord> AbdRegister::in_flight_write() const {
  if (!active_ || pending_.phase != 2 ||
      pending_.op.kind != RegOp::Kind::kWrite) {
    return std::nullopt;
  }
  RegOpRecord record;
  record.client = self_;
  record.kind = RegOp::Kind::kWrite;
  record.value = pending_.op.value;
  record.tag = pending_.best_tag;  // the tag being installed
  record.invoked_step = pending_.invoked_step;
  record.responded_step = std::numeric_limits<std::int64_t>::max();
  return record;
}

std::vector<RegOpRecord> collect_records(
    const std::vector<std::unique_ptr<Automaton>>& automata) {
  std::vector<RegOpRecord> out;
  for (const auto& a : automata) {
    if (const auto* reg = dynamic_cast<const AbdRegister*>(a.get())) {
      out.insert(out.end(), reg->completed().begin(), reg->completed().end());
      if (const auto pending = reg->in_flight_write()) {
        out.push_back(*pending);
      }
    }
  }
  return out;
}

AutomatonFactory make_abd(Pid n, std::vector<std::vector<RegOp>> workloads) {
  assert(workloads.size() == static_cast<std::size_t>(n));
  return [n, workloads](Pid p) {
    return std::make_unique<AbdRegister>(
        p, n, workloads[static_cast<std::size_t>(p)]);
  };
}

}  // namespace nucon
