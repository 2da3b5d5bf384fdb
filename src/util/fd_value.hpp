// FdValue: the value a process reads from its local failure-detector module
// in one step.
//
// The paper works with several detector ranges: Pi (the leader detector
// Omega), 2^Pi (the quorum detectors Sigma / Sigma^nu / Sigma^nu+ and the
// suspect-list detectors P, <>P, S, <>S), and products of those (composed
// detectors such as (Omega, Sigma^nu+)). Rather than a recursive variant,
// FdValue is a flat record of up-to-three optional components — leader,
// quorum, suspects — which covers every detector in this library while
// keeping values cheap to compare and serialize.
//
// Past 64 processes a set component owns a heap block (util/process_set.hpp),
// so copying a value copies its blocks. The step path therefore moves values
// and reads their components in place: quorum() and suspects() return
// references into this FdValue, valid only as long as it lives (never bind
// one to a component of a temporary); the setters and combine() move their
// arguments in.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "util/bytes.hpp"
#include "util/process_set.hpp"

namespace nucon {

class FdValue {
 public:
  constexpr FdValue() = default;

  [[nodiscard]] static constexpr FdValue of_leader(Pid p) {
    FdValue v;
    v.set_leader(p);
    return v;
  }

  [[nodiscard]] static constexpr FdValue of_quorum(ProcessSet q) {
    FdValue v;
    v.set_quorum(std::move(q));
    return v;
  }

  [[nodiscard]] static constexpr FdValue of_suspects(ProcessSet s) {
    FdValue v;
    v.set_suspects(std::move(s));
    return v;
  }

  /// Product detector (D, D'): the union of the components of both values.
  /// Each component may be supplied by at most one side. Both operands are
  /// taken by value, so a caller passing temporaries copies no set.
  [[nodiscard]] static constexpr FdValue combine(FdValue a, FdValue b) {
    if (b.has_leader()) a.set_leader(b.leader_);
    if (b.has_quorum()) a.set_quorum(std::move(b.quorum_));
    if (b.has_suspects()) a.set_suspects(std::move(b.suspects_));
    return a;
  }

  constexpr void set_leader(Pid p) {
    flags_ |= kHasLeader;
    leader_ = p;
  }
  constexpr void set_quorum(ProcessSet q) {
    flags_ |= kHasQuorum;
    quorum_ = std::move(q);
  }
  constexpr void set_suspects(ProcessSet s) {
    flags_ |= kHasSuspects;
    suspects_ = std::move(s);
  }

  [[nodiscard]] constexpr bool has_leader() const { return flags_ & kHasLeader; }
  [[nodiscard]] constexpr bool has_quorum() const { return flags_ & kHasQuorum; }
  [[nodiscard]] constexpr bool has_suspects() const { return flags_ & kHasSuspects; }

  /// Accessors require the component to be present (checked by assert).
  /// The set accessors return references into this value.
  [[nodiscard]] constexpr Pid leader() const {
    assert(has_leader());
    return leader_;
  }
  [[nodiscard]] constexpr const ProcessSet& quorum() const {
    assert(has_quorum());
    return quorum_;
  }
  [[nodiscard]] constexpr const ProcessSet& suspects() const {
    assert(has_suspects());
    return suspects_;
  }

  friend constexpr bool operator==(const FdValue&, const FdValue&) = default;

  /// The value in a system of n processes: sets in ceil(n/64) words, and
  /// decode refuses a leader or member outside [0, n).
  void encode(ByteWriter& w, Pid n) const;
  [[nodiscard]] static std::optional<FdValue> decode(ByteReader& r, Pid n);

  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::uint8_t kHasLeader = 1;
  static constexpr std::uint8_t kHasQuorum = 2;
  static constexpr std::uint8_t kHasSuspects = 4;

  std::uint8_t flags_ = 0;
  Pid leader_ = -1;
  ProcessSet quorum_;
  ProcessSet suspects_;
};

}  // namespace nucon
