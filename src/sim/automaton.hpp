// The deterministic process automata of the paper's model (§2.4).
//
// One step is atomic and does exactly four things: receive a single message
// (or the empty message lambda), query the local failure-detector module,
// change state, and send messages. The interface below is that step; the
// scheduler supplies the received message and the FD value, which are the
// only nondeterministic inputs, so automata themselves are deterministic —
// a recorded schedule replays to identical states.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "util/bytes.hpp"
#include "util/fd_value.hpp"
#include "util/process_set.hpp"
#include "util/shared_bytes.hpp"

namespace nucon {

/// A message handed to an automaton during a step. The automaton reads
/// `payload` during the step and never keeps the view past it.
struct Incoming {
  Pid from = -1;
  ByteView payload;
  /// The sealed buffer `payload` lies in, set only by executors that
  /// deliver it on one thread (the step kernel's) and passed on by a
  /// ChannelMux. Lets a broadcast's receivers share one decode of it
  /// (SharedBytes::decoded) instead of parsing identical bytes n times.
  const SharedBytes* shared = nullptr;
};

/// A message an automaton asks to send during a step. The payload is
/// refcounted: a broadcast enqueues n shares of one sealed buffer instead
/// of n copies (util/shared_bytes.hpp).
struct Outgoing {
  Pid to = -1;
  SharedBytes payload;
};

class Automaton {
 public:
  virtual ~Automaton() = default;

  Automaton() = default;
  Automaton& operator=(const Automaton&) = delete;

  /// One atomic step. `in` is nullptr for the empty message lambda.
  /// Messages to send are appended to `out`.
  virtual void step(const Incoming* in, const FdValue& d,
                    std::vector<Outgoing>& out) = 0;

  /// The one state contract (§2's local state): two automata constructed
  /// by the same factory call whose save_state encodings are equal must
  /// behave identically on every future input, and
  /// restore_state(save_state(a)) must reproduce a exactly. Every reader
  /// compares these bytes: the model checker, the fuzzer's coverage, trace
  /// state hashes and the Lemma 2.2 merge checks. Returns false when the
  /// automaton does not support it (the default).
  [[nodiscard]] virtual bool save_state(ByteWriter&) const { return false; }
  [[nodiscard]] virtual bool restore_state(ByteReader&) { return false; }

  /// save_state as one buffer, or nullopt without it. Virtual only for
  /// decorators that forward it.
  [[nodiscard]] virtual std::optional<Bytes> snapshot() const {
    ByteWriter w;
    if (!save_state(w)) return std::nullopt;
    return w.take();
  }

  /// Convenience wrapper: restores from a whole buffer, requiring it to be
  /// consumed exactly.
  [[nodiscard]] bool restore(const Bytes& state) {
    ByteReader r(state);
    return restore_state(r) && r.done();
  }

  /// Deep copy of the full state (including transient scratch); nullptr
  /// when the automaton does not implement clone_raw.
  [[nodiscard]] std::unique_ptr<Automaton> clone() const {
    return std::unique_ptr<Automaton>(clone_raw());
  }

 protected:
  /// Copying is reserved for clone_raw implementations; slicing copies
  /// through a base reference stay inaccessible to outside code.
  Automaton(const Automaton&) = default;

  /// Covariant clone hook: final classes return `new Self(*this)`.
  [[nodiscard]] virtual Automaton* clone_raw() const { return nullptr; }
};

/// Values proposed to / decided by consensus. int64 is general enough for
/// the paper's binary consensus and for multivalued tests.
using Value = std::int64_t;

/// An automaton that participates in consensus: it is constructed proposing
/// some value and may irrevocably decide.
class ConsensusAutomaton : public Automaton {
 public:
  [[nodiscard]] virtual std::optional<Value> decision() const = 0;

  /// Covariant clone (hides Automaton::clone on purpose): the model
  /// checker clones consensus automata and keeps querying decision().
  [[nodiscard]] std::unique_ptr<ConsensusAutomaton> clone() const {
    return std::unique_ptr<ConsensusAutomaton>(clone_raw());
  }

 protected:
  ConsensusAutomaton() = default;
  ConsensusAutomaton(const ConsensusAutomaton&) = default;
  [[nodiscard]] ConsensusAutomaton* clone_raw() const override {
    return nullptr;
  }
};

/// Creates the automaton for process p in the initial configuration.
using AutomatonFactory =
    std::function<std::unique_ptr<Automaton>(Pid p)>;

/// Creates a consensus automaton for process p proposing `proposal`.
using ConsensusFactory = std::function<std::unique_ptr<ConsensusAutomaton>(
    Pid p, Value proposal)>;

/// Helper: broadcast `payload` to every process in [0, n), including the
/// sender (a self-addressed message through the buffer models the paper's
/// "send to all" convention). The payload is sealed once; each recipient
/// gets a share, not a copy.
inline void broadcast(Pid n, SharedBytes payload, std::vector<Outgoing>& out) {
  SharedBytes::counters().broadcasts += 1;
  for (Pid q = 0; q < n; ++q) out.push_back({q, payload});
}

/// Helper for multiplexing automata (ChannelMux below, ReplicatedLog):
/// re-emits a component's sends, each payload re-encoded by
/// `write_frame(ByteWriter&, const Bytes& payload)` (a channel byte or an
/// instance header plus the payload). Shares of one broadcast payload
/// (same buffer identity) are framed once and the frame re-shared, so
/// framing does not undo the broadcast's copy elision; `scratch` only
/// grows, so steady-state framing does not allocate for the encode itself.
template <typename WriteFrame>
void reframe_sends(std::vector<Outgoing>& sends, ByteWriter& scratch,
                   WriteFrame&& write_frame, std::vector<Outgoing>& out) {
  const Bytes* last_raw = nullptr;
  SharedBytes framed;
  for (Outgoing& o : sends) {
    if (last_raw == nullptr || o.payload.raw() != last_raw) {
      scratch.reset();
      write_frame(scratch, o.payload.get());
      last_raw = o.payload.raw();
      framed = SharedBytes(scratch.buffer());
    }
    out.push_back({o.to, framed});
  }
}

/// One link shared by the components of a stacked automaton (StackedNuc,
/// FromScratchConsensus, FdHost): every message carries a one-byte channel
/// prefix naming the component it belongs to. A step calls step() on its
/// message for each component, in the order the composition needs.
class ChannelMux {
 public:
  /// Steps `component` on `in` (nullptr for lambda) if it is on
  /// `channel`, else on lambda, and appends the component's sends to
  /// `out`, each prefixed with `channel`. The component gets a view of the
  /// same sealed buffer past the channel byte, and the buffer itself. An
  /// empty payload or a channel no component steps on is lambda for all.
  void step(const Incoming* in, Automaton& component, std::uint8_t channel,
            const FdValue& d, std::vector<Outgoing>& out);

 private:
  // Send scratch only: the mux keeps nothing between steps.
  std::vector<Outgoing> sends_;
  ByteWriter frame_;
};

}  // namespace nucon
