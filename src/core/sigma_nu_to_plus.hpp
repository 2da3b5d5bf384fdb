// T_{Sigma^nu -> Sigma^nu+} (paper Fig. 3, Theorem 6.7).
//
// Each process runs A_DAG over samples of Sigma^nu, keeping a freshness
// barrier u_p (its own most recent sample at the time of the last output).
// Whenever the cone G_p|u_p contains a path g with
//      trusted(g) subset-of participants(g)   and   p in participants(g)
// the process outputs participants(g) as its next Sigma^nu+ quorum and
// refreshes u_p. Self-inclusion is the "p in participants(g)" condition;
// conditional nonintersection follows because every participant's sampled
// Sigma^nu quorum is contained in the output (Lemma 6.4); completeness
// follows from the freshness barrier (Lemma 6.2).
//
// Path search: the paper's "exists a path" is over exponentially many
// paths; we search the suffixes of the fair chain through the cone
// (SampleDag::fair_chain: round robin over creators, in batches of own
// successors), which is exactly the shape of the witness path built in the
// proof of Lemma 6.1 (a fresh window containing samples of every correct
// process), and pick the longest valid suffix. The embedded DagCore keeps
// the chain's walk across steps and resumes it as the DAG grows.
#pragma once

#include "core/emulated.hpp"
#include "dag/dag_builder.hpp"

namespace nucon {

class SigmaNuToPlus final : public Automaton, public EmulatedFd {
 public:
  /// gossip_every: DAG gossip cadence (see effective_gossip_every).
  SigmaNuToPlus(Pid self, Pid n, int gossip_every = 0);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] FdValue emulated_output() const override {
    return FdValue::of_quorum(output_);
  }

  [[nodiscard]] const DagCore& core() const { return core_; }
  [[nodiscard]] std::int64_t outputs_produced() const { return outputs_; }

  [[nodiscard]] bool save_state(ByteWriter& w) const override;
  [[nodiscard]] bool restore_state(ByteReader& r) override;

 private:
  /// StackedNuc's clone copies its embedded components.
  friend class StackedNuc;
  SigmaNuToPlus(const SigmaNuToPlus&) = default;
  [[nodiscard]] SigmaNuToPlus* clone_raw() const override {
    return new SigmaNuToPlus(*this);
  }

  /// Searches G|u for a witness path and updates the output; returns true
  /// when a new quorum was emitted (lines 15-17).
  bool try_emit(NodeRef fresh);

  DagCore core_;
  Pid n_;
  int gossip_every_;
  ProcessSet output_;  // Sigma^nu+-output_p, initially Pi (line 2)
  NodeRef u_;          // freshness barrier u_p
  std::int64_t outputs_ = 0;
};

[[nodiscard]] AutomatonFactory make_sigma_nu_to_plus(Pid n,
                                                     int gossip_every = 0);

}  // namespace nucon
