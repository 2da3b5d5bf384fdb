// T_{D -> Sigma^nu} (paper Fig. 2, Theorem 5.4): the necessity direction.
//
// Given ANY failure detector D that can be used to solve binary nonuniform
// consensus via some algorithm A, each process runs A_DAG over samples of
// D and, in its computation component, simulates schedules of A from the
// cone G_p|u_p of fresh samples against the two initial configurations I_0
// (all propose 0) and I_1 (all propose 1). When it finds simulated
// schedules S_0 and S_1 in which it decides in both, it outputs
// participants(S_0) u participants(S_1) as its next Sigma^nu quorum and
// refreshes the barrier u_p.
//
// Why this yields Sigma^nu: if two correct processes ever emitted disjoint
// quorums, the corresponding deciding schedules would be mergeable runs of
// A deciding 0 and 1 respectively (Lemma 2.2), contradicting nonuniform
// agreement (Lemma 5.3); the freshness barrier gives completeness
// (Lemma 5.2). When A solves *uniform* consensus the same emitted history
// is in Sigma (Theorem 5.8).
//
// Schedule search: Sch(G|u, I) is exponential; following the constructive
// proofs (Lemmas 4.8/4.10) we simulate A along the fair chain of the cone
// (SampleDag::fair_chain, kept by DagCore across steps) with oldest-first
// delivery and take the shortest deciding prefix. This finds a deciding
// schedule whenever the cone contains enough fresh samples of enough
// processes, which is what the liveness argument (Lemma 5.1) relies on.
#pragma once

#include "core/emulated.hpp"
#include "dag/dag_builder.hpp"
#include "dag/schedule_sim.hpp"

namespace nucon {

struct ExtractOptions {
  /// The consensus algorithm A that uses D (as a factory), and the system
  /// size it was built for.
  ConsensusFactory algorithm;
  Pid n = 0;
  /// Run the (expensive) simulation search only every `check_every` steps;
  /// 1 matches the listing.
  int check_every = 1;
  /// Cap on the chain length fed to each simulation (0 = unlimited).
  std::size_t max_chain = 0;
  /// DAG gossip cadence (see effective_gossip_every; 0 = default 2n).
  int gossip_every = 0;
};

class ExtractSigmaNu final : public Automaton, public EmulatedFd {
 public:
  ExtractSigmaNu(Pid self, ExtractOptions opts);

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override;

  [[nodiscard]] FdValue emulated_output() const override {
    return FdValue::of_quorum(output_);
  }

  [[nodiscard]] const DagCore& core() const { return core_; }
  [[nodiscard]] std::int64_t outputs_produced() const { return outputs_; }
  [[nodiscard]] std::int64_t simulations_run() const { return simulations_; }

 private:
  bool try_emit(NodeRef fresh);

  DagCore core_;
  ExtractOptions opts_;
  ProcessSet output_;  // Sigma^nu-output_p, initially Pi (line 2)
  NodeRef u_;          // freshness barrier u_p
  std::int64_t outputs_ = 0;
  std::int64_t simulations_ = 0;
  int steps_since_check_ = 0;
};

[[nodiscard]] AutomatonFactory make_extract_sigma_nu(ExtractOptions opts);

}  // namespace nucon
