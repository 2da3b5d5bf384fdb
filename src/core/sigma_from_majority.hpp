// Implementing Sigma "from scratch" when a majority is correct
// (paper Theorem 7.1, IF direction).
//
// In environment E_t with t < n/2, Sigma needs no failure detector at all:
// processes proceed in asynchronous rounds, each round broadcasting a tag
// and outputting the set of the first n - t processes heard from. Any two
// outputs are (n - t)-sized with n - t > n/2, hence intersect; eventually
// only correct processes send, giving completeness. Together with Omega
// this makes (Omega, Sigma) — and a fortiori (Omega, Sigma^nu) —
// implementable, which is the easy half of the equivalence
// (Omega, Sigma^nu) == (Omega, Sigma) under a correct majority.
#pragma once

#include <map>

#include "core/emulated.hpp"
#include "sim/automaton.hpp"

namespace nucon {

class SigmaFromMajority final : public Automaton, public EmulatedFd {
 public:
  /// `t` is the environment's fault bound; requires t < n/2 for the output
  /// to be a Sigma history (the class still runs otherwise, which is how
  /// the tests demonstrate the property failing when t >= n/2).
  SigmaFromMajority(Pid self, Pid n, Pid t);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] FdValue emulated_output() const override {
    return FdValue::of_quorum(output_);
  }

  [[nodiscard]] bool save_state(ByteWriter& w) const override;
  [[nodiscard]] bool restore_state(ByteReader& r) override;

  [[nodiscard]] int round() const { return round_; }
  [[nodiscard]] std::int64_t quorums_output() const { return emitted_; }

 private:
  void begin_round(std::vector<Outgoing>& out);

  const Pid self_;
  const Pid n_;
  const Pid t_;

  int round_ = 0;
  /// heard_[k] = senders of round-k tags received so far, k >= round_;
  /// kept per round because a fast process may send its round-k tag before
  /// we enter k. Tags of rounds already over are dropped.
  std::map<int, ProcessSet> heard_;
  ProcessSet output_;  // initially Pi
  std::int64_t emitted_ = 0;

  /// Encode scratch: reset before each round tag, so steady-state encoding
  /// reuses one grown buffer instead of allocating per broadcast.
  ByteWriter scratch_;
};

[[nodiscard]] AutomatonFactory make_sigma_from_majority(Pid n, Pid t);

}  // namespace nucon
