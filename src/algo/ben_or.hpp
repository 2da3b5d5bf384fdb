// Ben-Or randomized binary consensus (1983) — the classical oracle-free
// baseline.
//
// The failure-detector approach this library reproduces is one of two
// standard ways around FLP; randomization is the other, and having it in
// the library lets the benches compare their costs. Round r:
//   phase 1: broadcast (R1, r, x); await n-t reports; if a strict
//            majority of all n carried the same v, propose v, else "?";
//   phase 2: broadcast (R2, r, proposal); await n-t proposals;
//            >= t+1 for v  -> decide v (and keep participating),
//            >= 1   for v  -> adopt v,
//            none          -> x = fair coin.
// Requires n > 2t for safety and terminates with probability 1; each
// automaton draws its coins from its own seeded tape, so runs stay
// deterministic and replayable.
#pragma once

#include <map>
#include <optional>

#include "sim/automaton.hpp"
#include "util/rng.hpp"

namespace nucon {

class BenOr final : public ConsensusAutomaton {
 public:
  /// proposal must be 0 or 1. `t` is the tolerated fault bound (n > 2t).
  BenOr(Pid self, Value proposal, Pid n, Pid t, std::uint64_t coin_seed);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] std::optional<Value> decision() const override {
    return decided_;
  }

  [[nodiscard]] bool save_state(ByteWriter& w) const override;
  [[nodiscard]] bool restore_state(ByteReader& r) override;

  [[nodiscard]] int round() const { return round_; }
  /// Round in which this process first decided (0 if undecided).
  [[nodiscard]] int decided_round() const { return decided_round_; }
  [[nodiscard]] std::int64_t coin_flips() const { return coin_flips_; }

 private:
  enum class Phase { kAwaitReports, kAwaitProposals };

  BenOr(const BenOr&) = default;
  [[nodiscard]] BenOr* clone_raw() const override { return new BenOr(*this); }

  static constexpr Value kQuestion = -1;

  /// Slots sized n on first touch (a fixed kMaxProcesses array would cost
  /// ~30KB per buffered round at the 1024-process cap).
  struct RoundMsgs {
    std::vector<std::optional<Value>> report;
    std::vector<std::optional<Value>> proposal;
    void ensure(Pid n) {
      if (report.empty()) {
        report.resize(static_cast<std::size_t>(n));
        proposal.resize(static_cast<std::size_t>(n));
      }
    }
  };

  void on_message(Pid from, ByteView payload);
  void advance(std::vector<Outgoing>& out);
  void start_round(std::vector<Outgoing>& out);

  /// Seals (tag, round, v) into scratch_ and returns one shareable buffer.
  [[nodiscard]] SharedBytes encode(std::uint8_t tag, int round, Value v);

  const Pid self_;
  const Pid n_;
  const Pid t_;

  Value x_;
  int round_ = 0;
  int decided_round_ = 0;
  Phase phase_ = Phase::kAwaitReports;
  std::optional<Value> decided_;
  Rng coin_;
  std::int64_t coin_flips_ = 0;
  std::map<int, RoundMsgs> inbox_;

  /// Encode scratch: reset before each message build, so steady-state
  /// encoding reuses one grown buffer instead of allocating per send.
  ByteWriter scratch_;
};

[[nodiscard]] ConsensusFactory make_ben_or(Pid n, Pid t,
                                           std::uint64_t seed = 0xBE7);

}  // namespace nucon
