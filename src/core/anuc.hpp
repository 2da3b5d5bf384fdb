// A_nuc: nonuniform consensus from (Omega, Sigma^nu+) in any environment
// (paper Figs. 4 and 5, Theorem 6.27).
//
// The skeleton is the Mostéfaoui-Raynal three-phase round structure
// (LEAD / REP / PROP), with two additions that defeat contamination:
//
//  * Distrust. Every process accumulates a quorum history H_p (its own
//    quorums via get_quorum, everyone else's via SAW messages and the
//    histories piggybacked on LEAD and PROP messages). A leader estimate
//    is adopted only from a process p does not distrust, and proposals are
//    only consumed from a quorum none of whose members is distrusted
//    (Fig. 5 lines 51-53; core/quorum_history.hpp).
//
//  * Quorum awareness. Before p may decide using quorum Q, every member
//    of Q must have acknowledged (SAW/ACK handshake, lines 31-42) having
//    inserted Q into its copy of H[q] in an earlier round — so any process
//    that later collects proposals from a quorum intersecting Q learns
//    that p saw Q, and will distrust whoever presents a quorum disjoint
//    from it (Lemmas 6.17, 6.24, 6.25).
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/quorum_history.hpp"
#include "sim/automaton.hpp"

namespace nucon {

/// Ablation switches for A_nuc. Both default on; the ablation experiment
/// (bench_ablation, E11) disables each in turn and shows nonuniform
/// agreement break under the adversarial oracle family — i.e. each of the
/// paper's two additions over Mostéfaoui-Raynal is individually necessary.
struct AnucOptions {
  /// The distrust test before adopting a leader estimate and before
  /// consuming a quorum's proposals (Fig. 4 lines 18 and 28).
  bool use_distrust = true;
  /// The SAW/ACK quorum-awareness precondition for deciding
  /// (Fig. 4 line 30, "seen_p[Q_p] < k_p").
  bool use_quorum_awareness = true;
};

class Anuc final : public ConsensusAutomaton {
 public:
  Anuc(Pid self, Value proposal, Pid n, AnucOptions options = {});

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] std::optional<Value> decision() const override {
    return decided_;
  }

  [[nodiscard]] bool save_state(ByteWriter& w) const override;
  [[nodiscard]] bool restore_state(ByteReader& r) override;

  [[nodiscard]] int round() const { return round_; }
  [[nodiscard]] int decided_round() const { return decided_round_; }

  /// Instrumentation for the benches.
  [[nodiscard]] const QuorumHistory& history() const { return history_; }
  [[nodiscard]] std::int64_t distrust_calls() const { return distrust_calls_; }
  [[nodiscard]] std::int64_t distrust_hits() const { return distrust_hits_; }

 private:
  enum class Phase { kAwaitLead, kAwaitReports, kAwaitProposals };

  /// StackedNuc's clone copies its embedded components.
  friend class StackedNuc;
  Anuc(const Anuc&) = default;
  [[nodiscard]] Anuc* clone_raw() const override { return new Anuc(*this); }

  static constexpr Value kQuestion = INT64_MIN;

  /// The history rides immutably from decode to import, so receivers of
  /// one broadcast share a single decoded object (the sealed buffer's
  /// decode slot) instead of each parsing identical bytes.
  struct HistoryMsg {
    Value v = 0;
    std::shared_ptr<const QuorumHistory> h;
  };

  /// Slots sized n on first touch (a fixed kMaxProcesses array would cost
  /// ~100KB per buffered round at the 1024-process cap).
  struct RoundMsgs {
    std::vector<std::optional<HistoryMsg>> lead;
    std::vector<std::optional<Value>> rep;
    std::vector<std::optional<HistoryMsg>> prop;
    /// Members whose PROP history this round has already been folded into
    /// history_. import is idempotent (pointwise union), so skipping the
    /// re-import on every kAwaitProposals retry pass changes no state —
    /// only the work. Deliberately not serialized: a restored automaton
    /// re-imports once, a no-op.
    ProcessSet props_imported;
    void ensure(Pid n) {
      if (lead.empty()) {
        lead.resize(static_cast<std::size_t>(n));
        rep.resize(static_cast<std::size_t>(n));
        prop.resize(static_cast<std::size_t>(n));
      }
    }
  };

  /// Per-quorum SAW/ACK bookkeeping (Fig. 4 lines 7-11 and 31-42); keyed
  /// by the quorum itself. `seen` empty encodes the initial infinity.
  struct SawState {
    bool sent = false;
    ProcessSet acks;
    int max_ack_round = 0;
    std::optional<int> seen;
  };

  void on_message(Pid from, ByteView payload, const SharedBytes* shared,
                  std::vector<Outgoing>& out);
  void advance(const FdValue& d, std::vector<Outgoing>& out);
  void start_round(std::vector<Outgoing>& out);

  /// get_quorum() (Fig. 5 lines 47-50): reads the Sigma^nu+ component and
  /// records it as one of this process's own quorums.
  ProcessSet get_quorum(const FdValue& d);

  [[nodiscard]] bool distrusts(Pid q);

  const Pid self_;
  const Pid n_;
  const AnucOptions options_;

  Value x_;  // current estimate
  int round_ = 0;
  Phase phase_ = Phase::kAwaitLead;
  std::optional<Value> decided_;
  int decided_round_ = 0;

  QuorumHistory history_;
  std::map<int, RoundMsgs> inbox_;
  /// ProcessSet's ordering is the numeric bitset order, so for n <= 64 this
  /// map iterates exactly like the old mask-keyed map (save_state bytes are
  /// unchanged).
  std::map<ProcessSet, SawState> saw_;

  /// Encode scratch: reset before each message build, so steady-state
  /// encoding reuses one grown buffer instead of allocating per send.
  ByteWriter scratch_;

  std::int64_t distrust_calls_ = 0;
  std::int64_t distrust_hits_ = 0;
};

[[nodiscard]] ConsensusFactory make_anuc(Pid n, AnucOptions options = {});

}  // namespace nucon
