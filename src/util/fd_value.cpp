#include "util/fd_value.hpp"

namespace nucon {

void FdValue::encode(ByteWriter& w, Pid n) const {
  w.u8(flags_);
  if (has_leader()) w.pid(leader_);
  if (has_quorum()) w.process_set(quorum_, n);
  if (has_suspects()) w.process_set(suspects_, n);
}

std::optional<FdValue> FdValue::decode(ByteReader& r, Pid n) {
  const auto flags = r.u8();
  if (!flags || (*flags & ~(kHasLeader | kHasQuorum | kHasSuspects)) != 0) {
    return std::nullopt;
  }
  FdValue v;
  if (*flags & kHasLeader) {
    const auto p = r.pid();
    if (!p || *p >= n) return std::nullopt;
    v.set_leader(*p);
  }
  if (*flags & kHasQuorum) {
    auto q = r.process_set(n);
    if (!q) return std::nullopt;
    v.set_quorum(std::move(*q));
  }
  if (*flags & kHasSuspects) {
    auto s = r.process_set(n);
    if (!s) return std::nullopt;
    v.set_suspects(std::move(*s));
  }
  return v;
}

std::string FdValue::to_string() const {
  std::string out = "(";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ", ";
    first = false;
  };
  if (has_leader()) {
    sep();
    out += "leader=" + std::to_string(leader_);
  }
  if (has_quorum()) {
    sep();
    out += "quorum=" + quorum_.to_string();
  }
  if (has_suspects()) {
    sep();
    out += "suspects=" + suspects_.to_string();
  }
  out += ')';
  return out;
}

}  // namespace nucon
