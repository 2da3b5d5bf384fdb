#include "algo/harness.hpp"

#include "algo/ben_or.hpp"
#include "algo/ct_consensus.hpp"
#include "algo/mr_consensus.hpp"
#include "core/anuc.hpp"
#include "core/from_scratch.hpp"
#include "core/stacked_nuc.hpp"
#include "fd/impl/host.hpp"

namespace nucon {

std::vector<Value> mixed_proposals(Pid n) {
  std::vector<Value> out(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) out[static_cast<std::size_t>(p)] = p % 2;
  return out;
}

ConsensusRunStats run_consensus(const FailurePattern& fp, Oracle& oracle,
                                const ConsensusFactory& make,
                                const std::vector<Value>& proposals,
                                const SchedulerOptions& opts) {
  SimResult sim = simulate_consensus(fp, oracle, make, proposals, opts);

  ConsensusRunStats stats;
  stats.decisions = decisions_of(sim.automata);
  stats.verdict = check_consensus(fp, proposals, stats.decisions);
  stats.messages_sent = sim.messages_sent;
  stats.bytes_sent = sim.bytes_sent;
  stats.steps = sim.steps_taken;
  stats.end_time = sim.end_time;
  stats.all_correct_decided = all_correct_decided(fp, sim.automata);

  std::optional<DagWork> dag_work;
  for (Pid p = 0; p < fp.n(); ++p) {
    const Automaton* a = sim.automata[static_cast<std::size_t>(p)].get();
    // A hosted stack reports the rounds of the algorithm it hosts.
    if (const auto* host = dynamic_cast<const FdHost*>(a)) {
      a = &host->inner();
    }
    int round = 0;
    int decided_round = 0;
    if (const auto* mr = dynamic_cast<const MrConsensus*>(a)) {
      round = mr->round();
      decided_round = mr->decided_round();
    } else if (const auto* anuc = dynamic_cast<const Anuc*>(a)) {
      round = anuc->round();
      decided_round = anuc->decided_round();
    } else if (const auto* stacked = dynamic_cast<const StackedNuc*>(a)) {
      round = stacked->consensus().round();
      decided_round = stacked->consensus().decided_round();
      if (!dag_work) dag_work.emplace();
      *dag_work += stacked->transformation().core().work();
    } else if (const auto* scratch = dynamic_cast<const FromScratchConsensus*>(a)) {
      round = scratch->consensus().round();
      decided_round = scratch->consensus().decided_round();
    } else if (const auto* ct = dynamic_cast<const CtConsensus*>(a)) {
      round = ct->round();
      decided_round = ct->decided_round();
    } else if (const auto* bo = dynamic_cast<const BenOr*>(a)) {
      round = bo->round();
      decided_round = bo->decided_round();
    }
    stats.max_round = std::max(stats.max_round, round);
    if (fp.is_correct(p)) {
      stats.decide_round = std::max(stats.decide_round, decided_round);
    }
  }

  stats.metrics = std::move(sim.metrics);
  stats.metrics.counter("consensus.max_round") = stats.max_round;
  stats.metrics.counter("consensus.decide_round") = stats.decide_round;
  stats.metrics.counter("consensus.all_correct_decided") =
      stats.all_correct_decided;
  if (dag_work) {
    stats.metrics.counter("dag.nodes_decoded") = dag_work->nodes_decoded;
    stats.metrics.counter("dag.held_skipped") = dag_work->held_skipped;
    stats.metrics.counter("dag.held_validated") = dag_work->held_validated;
    stats.metrics.counter("dag.walk_searches") = dag_work->walk_searches;
    stats.metrics.counter("dag.walks_resumed") = dag_work->walks_resumed;
    stats.metrics.counter("dag.walks_restarted") = dag_work->walks_restarted;
  }
  return stats;
}

}  // namespace nucon
