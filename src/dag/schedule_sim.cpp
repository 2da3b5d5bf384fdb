#include "dag/schedule_sim.hpp"

#include <cassert>

#include "sim/step.hpp"

namespace nucon {

ChainSimOutcome simulate_chain(const SampleDag& dag,
                               std::span<const NodeRef> chain,
                               const ConsensusFactory& make,
                               const std::vector<Value>& proposals,
                               Pid observer) {
  const Pid n = dag.n();
  assert(proposals.size() == static_cast<std::size_t>(n));
  assert(observer >= 0 && observer < n);

  ChainSimOutcome outcome;

  std::vector<std::unique_ptr<ConsensusAutomaton>> automata;
  automata.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) {
    automata.push_back(make(p, proposals[static_cast<std::size_t>(p)]));
  }

  MessageBuffer buffer;
  SendNamer namer(n);
  std::vector<Outgoing> sends;

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const NodeRef node = chain[i];
    const Pid p = node.q;
    const FdValue& d = dag.node(node).d;
    outcome.participants.insert(p);

    // Lemma 4.10 delivery rule: the oldest pending message, else lambda.
    std::optional<Message> msg;
    if (buffer.pending_for(p) > 0) msg = buffer.take(p, 0);

    deliver(*automata[static_cast<std::size_t>(p)], msg, d, sends);
    for (Outgoing& o : sends) {
      buffer.add(namer.name(p, std::move(o), static_cast<Time>(i)));
    }

    if (!outcome.observer_decided) {
      if (const auto decision =
              automata[static_cast<std::size_t>(observer)]->decision()) {
        outcome.observer_decided = true;
        outcome.decision = decision;
        outcome.steps_to_decision = i + 1;
        outcome.prefix_participants = outcome.participants;
      }
    }
  }

  return outcome;
}

}  // namespace nucon
