// Parsing and analysis of recorded JSONL traces.
//
// The inverse of trace_recorder.hpp, plus the one analysis the debugging
// workflow is built around: given the decide events of a run, find the
// first step at which agreement diverged — separately for the uniform
// flavor (any two deciders differ) and the nonuniform flavor (two
// *correct* deciders differ), because the gap between those two is the
// subject of the paper. tools/trace_dump renders what this header
// computes.
//
// Each line is parsed with util/minijson, then read against the schema
// the recorder emits (documented in EXPERIMENTS.md): every field has its
// type checked, and every process id must lie in [0, n), so hostile bytes
// end in a ParseError, never in an out-of-range id.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/failure_pattern.hpp"
#include "util/process_set.hpp"

namespace nucon::trace {

/// The JSONL schema version this reader understands. The recorder stamps
/// it into the meta record (`"v":1`); a trace carrying a different version
/// is rejected up front instead of being silently misparsed.
inline constexpr std::int64_t kTraceSchemaVersion = 1;

struct ParsedEvent {
  std::string kind;  // step, oracle, send, deliver, state, decide, verdict
  Time t = -1;
  Pid p = -1;
  /// send: destination; deliver/step-recv: sender. -1 when absent.
  Pid peer = -1;
  std::int64_t seq = -1;
  std::int64_t bytes = -1;
  std::int64_t delay = -1;
  bool forced = false;
  std::optional<std::int64_t> value;  // decide
  std::uint64_t state_hash = 0;       // state
  std::string fd;                     // oracle: fd object, as recorded
  std::string raw;                    // the whole line
};

struct ParsedTrace {
  // Meta header.
  std::int64_t version = kTraceSchemaVersion;
  std::string artifact;
  std::string expect;
  Pid n = 0;
  ProcessSet correct;

  std::vector<ParsedEvent> events;  // in recorded (= run) order

  [[nodiscard]] bool is_correct(Pid p) const { return correct.contains(p); }
};

/// Why a parse failed: a one-line message plus the 1-based line number of
/// the offending JSONL line (0 when the document as a whole is at fault,
/// e.g. no meta line anywhere). The CLI tools print exactly this.
struct ParseError {
  std::string message;
  std::size_t line = 0;

  [[nodiscard]] std::string to_string() const {
    return line == 0 ? message : "line " + std::to_string(line) + ": " + message;
  }
};

/// Parses a whole JSONL document. Returns nullopt if the meta line is
/// missing, repeated or preceded by an event, the schema version is
/// unknown, or any line is not one JSON object with a string "k", a field
/// of the wrong type, or a process id outside [0, n); when `error` is
/// non-null it receives the diagnostic.
[[nodiscard]] std::optional<ParsedTrace> parse_trace(const std::string& jsonl,
                                                     ParseError* error = nullptr);

/// One agreement-divergence finding: the decide event that first
/// contradicted an earlier decide.
struct Divergence {
  bool found = false;
  Time t = 0;
  Pid p = -1;
  std::int64_t value = 0;
  // The earlier, contradicted decide.
  Time earlier_t = 0;
  Pid earlier_p = -1;
  std::int64_t earlier_value = 0;
  /// The FD values the two deciders last sampled at (or before) their
  /// decide steps — raw `fd` JSON fragments, empty when the trace carries
  /// no oracle events. The paper's indistinguishability arguments turn on
  /// exactly these: what each decider's detector told it when it decided.
  std::string fd;
  std::string earlier_fd;
};

struct DivergenceReport {
  /// First decide differing from any earlier decide.
  Divergence uniform;
  /// First decide by a correct process differing from an earlier decide by
  /// a correct process.
  Divergence nonuniform;
};

[[nodiscard]] DivergenceReport find_divergence(const ParsedTrace& trace);

}  // namespace nucon::trace
