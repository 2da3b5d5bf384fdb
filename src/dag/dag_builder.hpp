// The DAG-building algorithm A_DAG (paper Fig. 1).
//
// Each step: receive a (possibly empty) gossiped DAG, merge it, query the
// local failure-detector module, append the sample as a new node whose
// predecessors are everything currently known, and gossip the whole DAG to
// every process. DagCore is the reusable body of the loop; the Fig. 2 and
// Fig. 3 transformation algorithms embed it and add their output
// computation after line 12, exactly as the paper's listings do. They
// gossip each receiver only the part of the DAG it lacks (gossip_deltas);
// since merging is a union, every process's DAG is the same as with whole
// DAGs. Standalone A_DAG sends the whole DAG, so E1 reports its cost.
#pragma once

#include <span>

#include "dag/sample_dag.hpp"
#include "sim/automaton.hpp"

namespace nucon {

class DagCore {
 public:
  DagCore(Pid self, Pid n) : self_(self), dag_(n) {}

  /// Lines 6-11 of Fig. 1: merge the received DAG or delta (if the message
  /// carried one), record the sample d as node (self, d, k), with edges
  /// from every known node. Returns the new node (the variable v_p of the
  /// listing).
  NodeRef on_step(const Incoming* in, const FdValue& d);

  /// Line 12 verbatim: the whole serialized DAG.
  [[nodiscard]] Bytes gossip() const { return dag_.serialize(); }

  /// Line 12 with the same effect: each other process r is sent the chain
  /// suffixes past r's acknowledged frontier (SampleDag::acked_frontier).
  /// One gossip fan-out, counted as one broadcast.
  void gossip_deltas(std::vector<Outgoing>& out) const;

  /// SampleDag::fair_chain(u, batch) of the current DAG. The walk is kept
  /// next to the DAG it reads: the next call with the same u and batch
  /// resumes it where the DAG's growth first changes it (FairWalk). The
  /// chain stays valid until the next call.
  [[nodiscard]] const std::vector<NodeRef>& fair_chain(NodeRef u,
                                                       int batch = 8);

  /// The chain of the last fair_chain call.
  [[nodiscard]] const std::vector<NodeRef>& walked_chain() const {
    return walk_.chain();
  }

  [[nodiscard]] const SampleDag& dag() const { return dag_; }
  [[nodiscard]] std::uint32_t k() const { return k_; }
  [[nodiscard]] Pid self() const { return self_; }
  [[nodiscard]] const DagWork& work() const { return work_; }

  /// Full-state save/restore for the embedding automata's model-checker
  /// support: the DAG (already serializable as the gossip payload) plus
  /// the local sample counter. The kept walk and the work counters are not
  /// state; restore is the one place a DAG is replaced, so it drops the
  /// walk. The counter must equal the length of the own chain, as every
  /// step keeps it.
  void save(ByteWriter& w) const {
    w.bytes(dag_.serialize());
    w.uvarint(k_);
  }
  [[nodiscard]] bool restore(ByteReader& r) {
    const auto raw = r.bytes();
    if (!raw) return false;
    auto dag = SampleDag::deserialize(*raw);
    if (!dag || dag->n() != dag_.n()) return false;
    const auto k = r.uvarint();
    if (!k || *k != dag->count_of(self_)) return false;
    dag_ = std::move(*dag);
    walk_.clear();
    k_ = static_cast<std::uint32_t>(*k);
    return true;
  }

 private:
  Pid self_;
  SampleDag dag_;
  std::uint32_t k_ = 0;
  FairWalk walk_;
  DagWork work_;
};

/// Sends the gossip payload to every process except the sender (the
/// paper's "send to every process" includes the sender, but self-delivery
/// of a DAG already merged is a no-op, and skipping it halves queue
/// pressure in two-process systems). The DAG — the heaviest payload in the
/// library — is serialized once and shared n-1 ways.
void gossip_to_others(Pid self, Pid n, SharedBytes payload,
                      std::vector<Outgoing>& out);

/// Gossip cadence for DAG-building automata. The paper's listing gossips
/// in every step, but a step of our model consumes at most one message
/// while such a broadcast produces n-1 of them: per-step gossip makes
/// queues grow without bound and the delivered DAGs ever staler. Gossiping
/// every ~2n steps keeps queues draining while still gossiping infinitely
/// often, which is all the limit lemmas (4.5-4.8) rely on. 0 = default
/// (2n); 1 reproduces the listing verbatim.
[[nodiscard]] constexpr int effective_gossip_every(int requested, Pid n) {
  return requested > 0 ? requested : 2 * n;
}

/// Fig. 1 as a standalone automaton (used by the E1 experiment to measure
/// DAG growth and gossip cost, and by the model tests for Lemmas 4.5-4.8).
class AdagAutomaton final : public Automaton {
 public:
  AdagAutomaton(Pid self, Pid n, int gossip_every = 0)
      : core_(self, n), n_(n),
        gossip_every_(effective_gossip_every(gossip_every, n)) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    core_.on_step(in, d);
    if (core_.k() % static_cast<std::uint32_t>(gossip_every_) == 0) {
      gossip_to_others(core_.self(), n_, core_.gossip(), out);
    }
  }

  [[nodiscard]] const DagCore& core() const { return core_; }

 private:
  DagCore core_;
  Pid n_;
  int gossip_every_;
};

[[nodiscard]] AutomatonFactory make_adag(Pid n, int gossip_every = 0);

/// participants(g) of a path (or any node sequence): the set of creators.
[[nodiscard]] ProcessSet participants_of(std::span<const NodeRef> path);

/// trusted(g) (paper Fig. 3, line 19): the union of the quorum components
/// of the sampled values along the path.
[[nodiscard]] ProcessSet trusted_of(const SampleDag& dag,
                                    std::span<const NodeRef> path);

}  // namespace nucon
