// Structured run traces: typed events streamed as deterministic JSONL.
//
// A TraceRecorder attached to SchedulerOptions::trace captures what
// happens inside one simulated run as a stream of typed events — step,
// send, deliver, oracle-query, state-transition, decide — one JSON object
// per line. The byte stream is a pure function of the run (no wall-clock
// timestamps, no pointers), so tracing the same SweepPoint from any
// thread, process or machine produces byte-identical files; that is what
// makes a trace attached to a failing sweep job trustworthy evidence.
//
// Cost discipline: every scheduler hook goes through NUCON_TRACE, which
// is a single null-pointer test, so runs without a recorder attached pay
// near zero.
//
// The line format is parsed back by trace_reader.hpp and rendered by
// tools/trace_dump; the schema is documented in EXPERIMENTS.md.
#pragma once

#include <string>

#include "check/consensus_checker.hpp"
#include "sim/message.hpp"
#include "sim/run.hpp"

namespace nucon::trace {

/// Hook guard: `NUCON_TRACE(opts.trace, on_send(p, m));` expands to a
/// null-check + call.
#define NUCON_TRACE(recorder, call)     \
  do {                                  \
    if (recorder) (recorder)->call;     \
  } while (0)

struct RecorderOptions {
  /// Per-event-kind switches, all cheap; state hashes are the exception
  /// (they encode the stepping automaton's complete save_state every step)
  /// and default off.
  bool steps = true;
  bool oracle_queries = true;
  bool sends = true;
  bool delivers = true;
  bool state_hashes = false;
  bool decides = true;
};

class TraceRecorder {
 public:
  using Options = RecorderOptions;

  explicit TraceRecorder(Options opts = Options()) : opts_(opts) {}

  [[nodiscard]] const Options& options() const { return opts_; }

  /// Emits the meta header line. `artifact` is a free-form label (the
  /// sweep engine passes the replay artifact string); `expect` names the
  /// agreement flavor the run is expected to satisfy.
  void begin_run(const FailurePattern& fp, const std::string& artifact,
                 const std::string& expect);

  // --- scheduler hook points -------------------------------------------
  void on_step(const StepRecord& rec);
  void on_oracle_query(Pid p, Time t, const FdValue& d);
  void on_send(Pid from, const Message& m);
  /// `forced` marks a fairness-backstop delivery (message overdue).
  void on_deliver(Pid to, const Message& m, Time now, bool forced);
  void on_state_transition(Pid p, Time t, std::uint64_t state_hash);
  void on_decide(Pid p, Time t, Value value);

  /// Appends one raw JSONL line (used for the trailing verdict record).
  /// `json_object` must be a complete JSON object without the newline.
  void annotate(const std::string& json_object);

  /// The JSONL document so far (one event per line, meta line first).
  [[nodiscard]] const std::string& jsonl() const { return out_; }
  [[nodiscard]] std::int64_t event_count() const { return events_; }

  /// Writes jsonl() to `path`; returns false on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  void line(std::string s);

  Options opts_;
  std::string out_;
  std::int64_t events_ = 0;
};

/// FNV-1a over an automaton's save_state bytes, the state fingerprint
/// carried by state-transition events.
[[nodiscard]] std::uint64_t state_hash_of(const Bytes& state);

/// An oracle event's `fd` object: only the present components, in the
/// order leader, quorum, suspects. trace_reader renders parsed values
/// back through it.
[[nodiscard]] std::string fd_json(const FdValue& d);

/// A trace's trailing `verdict` line: the four consensus properties, in
/// the order termination, validity, nonuniform and uniform agreement.
[[nodiscard]] std::string verdict_json(const ConsensusVerdict& v);

}  // namespace nucon::trace
