#include "sim/run.hpp"

#include "sim/step.hpp"

namespace nucon {

ReplayOutcome replay(const Run& run, Pid n, const AutomatonFactory& make) {
  ReplayOutcome out;
  out.automata.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) out.automata.push_back(make(p));

  SendNamer namer(n);
  std::vector<Outgoing> sends;

  for (std::size_t i = 0; i < run.steps.size(); ++i) {
    const StepRecord& s = run.steps[i];
    if (s.p < 0 || s.p >= n) {
      out.error = "step " + std::to_string(i) + ": bad pid";
      return out;
    }

    std::optional<Message> msg;
    if (s.received) {
      msg = out.leftover.take_by_id(s.p, *s.received);
      if (!msg) {
        out.error = "step " + std::to_string(i) +
                    ": schedule not applicable (message from " +
                    std::to_string(s.received->sender) + " seq " +
                    std::to_string(s.received->seq) + " not in buffer)";
        return out;
      }
      // Cross-process causality (property (5)): a message cannot be
      // received at or before the time it was sent.
      if (msg->sent_at >= s.t) {
        out.error = "step " + std::to_string(i) +
                    ": message received at t=" + std::to_string(s.t) +
                    " but sent at t=" + std::to_string(msg->sent_at);
        return out;
      }
    }

    deliver(*out.automata[static_cast<std::size_t>(s.p)], msg, s.d, sends);
    for (Outgoing& o : sends) {
      Message m = namer.name(s.p, std::move(o), s.t);
      out.bytes_sent += m.payload.size();
      ++out.messages_sent;
      out.leftover.add(std::move(m));
    }
  }

  out.ok = true;
  return out;
}

std::optional<std::string> check_run_structure(const Run& run) {
  Time prev = -1;
  std::vector<Time> last_step_of(static_cast<std::size_t>(run.fp.n()), -1);

  for (std::size_t i = 0; i < run.steps.size(); ++i) {
    const StepRecord& s = run.steps[i];
    if (s.p < 0 || s.p >= run.fp.n()) {
      return "step " + std::to_string(i) + ": pid out of range";
    }
    if (!run.fp.alive_at(s.p, s.t)) {
      return "step " + std::to_string(i) + ": process " + std::to_string(s.p) +
             " steps at t=" + std::to_string(s.t) + " after crashing";
    }
    if (s.t < prev) {
      return "step " + std::to_string(i) + ": times not nondecreasing";
    }
    prev = s.t;
    auto& last = last_step_of[static_cast<std::size_t>(s.p)];
    if (last >= s.t) {
      return "step " + std::to_string(i) + ": process " + std::to_string(s.p) +
             " takes two steps without time advancing";
    }
    last = s.t;
  }
  return std::nullopt;
}

AdmissibilityStats admissibility_stats(const Run& run, Pid n,
                                       const ReplayOutcome& outcome) {
  AdmissibilityStats stats;
  stats.steps_by_process.assign(static_cast<std::size_t>(n), 0);
  for (const StepRecord& s : run.steps) {
    ++stats.steps_by_process[static_cast<std::size_t>(s.p)];
  }
  for (Pid q : run.fp.correct()) {
    stats.undelivered_to_correct += outcome.leftover.pending_for(q);
  }
  return stats;
}

std::vector<std::optional<Value>> decisions_of(
    const std::vector<std::unique_ptr<Automaton>>& automata) {
  std::vector<std::optional<Value>> out(automata.size());
  for (std::size_t p = 0; p < automata.size(); ++p) {
    if (const auto* c = dynamic_cast<const ConsensusAutomaton*>(automata[p].get())) {
      out[p] = c->decision();
    }
  }
  return out;
}

}  // namespace nucon
