// The step kernel: the paper's one atomic step (§2.4), written once for
// every executor.
//
// A step of p receives one message or the empty message lambda, reads p's
// failure-detector module, changes p's state, and sends. Executors differ
// only in which message a step receives and what time it carries: the
// scheduler, replay, the Lemma 4.10 chain simulation and the model
// checker's witness replay all step through `deliver` and name their sends
// with a SendNamer.
#pragma once

#include <optional>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/message.hpp"

namespace nucon {

/// Steps `a` on `m` (lambda when empty) with detector value `d`, replacing
/// `sends` with the step's sends. The Incoming carries m's sealed buffer
/// (delivered on one thread), so a broadcast's receivers share one decode.
void deliver(Automaton& a, const std::optional<Message>& m, const FdValue& d,
             std::vector<Outgoing>& sends);

/// Names the sends of one run: p's k-th send, counting across all
/// destinations from 1, is message (p, k).
class SendNamer {
 public:
  explicit SendNamer(Pid n);

  /// p's next send as a message stamped with the step's logical time `t`
  /// (both sent_at and ready_at). Executors pass a global clock, which
  /// never decreases over the run, as MessageBuffer::add requires.
  [[nodiscard]] Message name(Pid p, Outgoing o, Time t);

 private:
  std::vector<std::uint64_t> sent_;  // sends so far, per process
};

}  // namespace nucon
