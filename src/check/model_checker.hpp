// Bounded model checking of consensus automata: exhaustive exploration of
// every schedule of a small system, up to a depth and state budget.
//
// The randomized scheduler samples runs; the model checker enumerates
// them. From each reachable configuration it branches on every choice the
// model leaves open — which process steps next and which pending message
// (or lambda) it receives. The failure detector is supplied as a
// deterministic function of (process, own step index), i.e. one fixed
// history, so the exploration covers exactly the schedules of that
// history.
//
// Engine (the incremental, parallel, collapsed, pruned explorer):
//  * incremental: a process's state is its complete Automaton::save_state
//    encoding (its section), so expanding a child is one restore + one
//    step + one encode instead of replaying the whole path from the
//    initial configuration. A per-Worker memo keyed on (process, own step,
//    sender, section id, payload id) skips even that for a transition
//    seen before;
//  * collapsed, as SPIN's collapse compression (Holzmann, "State
//    Compression in SPIN", 1997): sections and payloads are interned by
//    full content, once per search, and a configuration is stored once,
//    flat, as its n section ids, n packed counters and canonically ordered
//    wires (packed (to, sender, seq), payload id);
//  * the search is breadth-first by layers: each layer's frontier is
//    expanded in parallel over exp::ThreadPool, and the results are merged
//    sequentially in canonical frontier order. Interning, dedup, budget
//    accounting and violation selection all happen in the merge, which
//    makes the verdict, witness, and every counter bit-identical for any
//    thread count; ids never leave the search. BFS also reaches every
//    configuration at its minimum depth first, so the visited-set pruning
//    is sound under the depth bound;
//  * the visited store finds a configuration by a 128-bit key (two
//    independent 64-bit mixes per element, XORed over the configuration)
//    and then compares the stored ids, so a hit is exact;
//  * sleep-set partial-order reduction prunes interleavings that only
//    permute steps of different processes (each step touches one automaton
//    and one destination queue, so such steps commute). Sleep sets are
//    reconciled on revisits, which keeps the reduction sound under state
//    caching: POR changes how many arrivals are generated, never the set
//    of configurations reached within the depth bound, so the verdict and
//    states_explored match the unreduced search. McOptions::use_por
//    switches it off.
//
// Soundness notes:
//  * a reported violation is real: the witness trace replays
//    (replay_witness below re-executes it);
//  * "exhausted" is exact: two configurations are merged only when their
//    section ids, counters and wires are equal, and interning compares
//    bytes, so no hash collision can prune a configuration;
//  * "no violation" is relative to the depth/state budget, the fixed
//    detector history, and the automata's save_state being a COMPLETE
//    state encoding (true for every checkable automaton in this library).
//    An automaton without save_state is refused with
//    std::invalid_argument rather than searched with a weaker dedup: a
//    key that misses part of the state can prune configurations that
//    differ, and an "exhausted" verdict over it certifies nothing;
//  * the fd function is called from worker threads and must be pure.
//
// The flagship use (see model_checker_test.cpp): the checker
// *automatically finds* the paper's §6.3 violation for the naive
// Sigma^nu-quorum algorithm — two correct processes deciding differently
// within a dozen steps — and certifies A_nuc safe over the same
// exhaustively-explored space.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "sim/automaton.hpp"
#include "sim/failure_pattern.hpp"
#include "sim/message.hpp"

namespace nucon {

struct McOptions {
  Pid n = 2;
  ConsensusFactory make;
  std::vector<Value> proposals;
  /// The fixed failure-detector history: value seen by p at its k-th step
  /// (k starts at 1). Must be a pure function — frontier expansion calls
  /// it concurrently from worker threads.
  std::function<FdValue(Pid p, int own_step)> fd;
  /// All processes are correct in the explored runs; the property checked
  /// is pairwise decision agreement (uniform == nonuniform here).
  int max_depth = 20;
  std::size_t max_states = 1'000'000;
  /// Worker threads for frontier expansion; 1 runs serial, more run on a
  /// pool created for the call. The result is bit-identical for any
  /// thread count.
  unsigned threads = 1;
  /// Sleep-set partial-order reduction (see file comment).
  bool use_por = true;
};

/// One step of a witness schedule.
struct McStep {
  Pid p = -1;
  /// Index into p's pending messages in canonical (sender, seq) order at
  /// that configuration, or -1 for lambda.
  int delivery = -1;
  /// The delivered message's identity ({-1, 0} for lambda). Unlike the
  /// index it is stable across configurations; replay_witness checks it
  /// and the POR sleep sets are keyed on it.
  MsgId msg{};

  friend bool operator==(const McStep&, const McStep&) = default;
};

struct McResult {
  bool violation_found = false;
  std::string violation;        // description of the disagreement
  std::vector<McStep> witness;  // minimum-depth schedule reaching it
  /// Unique configurations reached (the root counts as one).
  std::size_t states_explored = 0;
  /// Arrivals at an already-covered configuration that were pruned.
  std::size_t states_deduped = 0;
  /// Revisits that re-expanded a cached configuration because the new
  /// arrival's sleep set demanded transitions the first visit skipped
  /// (the POR/state-caching reconciliation).
  std::size_t states_reexpanded = 0;
  /// Transitions pruned by the partial-order reduction.
  std::size_t por_skipped = 0;
  /// Configurations admitted although a stored one had the same 128-bit
  /// key: each is a prune a key-only visited set would have gotten wrong,
  /// and the exact comparison kept. 0 unless 128-bit keys collide.
  std::size_t hash_collisions = 0;
  /// Distinct sections (one process's save_state bytes) and distinct
  /// payloads among the stored configurations: the sizes of the search's
  /// interning tables.
  std::size_t sections_interned = 0;
  std::size_t payloads_interned = 0;
  /// Deepest configuration reached (<= max_depth).
  int peak_depth = 0;
  /// True when the search space within max_depth was fully covered
  /// without hitting the state budget.
  bool exhausted = false;

  friend bool operator==(const McResult&, const McResult&) = default;
};

/// Throws std::invalid_argument when some process's automaton has no
/// save_state (see the soundness notes above).
[[nodiscard]] McResult model_check_consensus(const McOptions& opts);

/// Re-executes a witness schedule against a fresh initial configuration
/// (canonical delivery indexing; each step's msg id is verified when set).
/// Returns the agreement violation the final configuration exhibits, or
/// nullopt when the schedule is inapplicable or ends violation-free.
[[nodiscard]] std::optional<std::string> replay_witness(
    const McOptions& opts, const std::vector<McStep>& witness);

/// The engine's 128-bit content key, exposed for external consumers (the
/// coverage-guided fuzzer in src/fuzz uses it to fingerprint per-process
/// states). Two independent 64-bit mixes of the same input; a collision
/// requires both halves to collide.
struct StateKey128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const StateKey128&, const StateKey128&) = default;
  friend bool operator<(const StateKey128& a, const StateKey128& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
  }
};

/// Content key of an encoded automaton state — the exact double-mix the
/// incremental engine computes for its per-process section hashes.
[[nodiscard]] StateKey128 state_key128(const Bytes& encoded);

/// Mixes a process id into its state's content key, matching the engine's
/// per-process element hashing (minus the step counters, which external
/// consumers track — or deliberately ignore — themselves).
[[nodiscard]] StateKey128 process_state_key(Pid p, StateKey128 content);

}  // namespace nucon
