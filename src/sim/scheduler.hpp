// The admissible-run executor.
//
// Drives a set of automata under a failure pattern and a failure-detector
// oracle, producing a recorded Run. All nondeterminism — step interleaving,
// which pending message (if any) a step receives — comes from a seeded Rng,
// and the policies guarantee the admissibility properties of §2.6 in the
// limit: every live process is scheduled once per "macro round" in a random
// order (property (6)), and a fairness backstop force-delivers any message
// that has been pending too long (property (7)).
#pragma once

#include <functional>

#include "fd/failure_detector.hpp"
#include "sim/run.hpp"
#include "sim/timing.hpp"
#include "trace/metrics.hpp"

namespace nucon::trace {
class TraceRecorder;
}  // namespace nucon::trace

namespace nucon::prof {
class ProfileCollector;
}  // namespace nucon::prof

namespace nucon {

/// Return values for SchedulerOptions::inject_delivery (below).
inline constexpr int kInjectDefer = -2;   ///< fall through to the seeded policy
inline constexpr int kInjectLambda = -1;  ///< force a lambda (no-delivery) step

struct SchedulerOptions {
  std::uint64_t seed = 1;

  /// Hard cap on total steps; the run is cut off here if no stop predicate
  /// fires first.
  std::int64_t max_steps = 200'000;

  /// Percent of steps that receive lambda even though messages are pending
  /// (models arbitrary delivery delay).
  int lambda_percent = 20;

  /// Percent of receiving steps that take a random pending message rather
  /// than the oldest (models reordering).
  int shuffle_percent = 30;

  /// Fairness backstop: once the oldest message pending for the stepping
  /// process is older than this many ticks, it is delivered unconditionally.
  Time max_message_age = 64;

  /// Timing-aware mode (sim/timing.hpp). When enabled, delivery is driven
  /// by per-message delays (a message becomes deliverable at ready_at and
  /// a step takes the earliest-ready pending message, oldest first on
  /// ties) and processes may run at skewed speeds; the lambda/shuffle
  /// randomness and the fairness backstop are bypassed — latency is the
  /// model, not the adversary. Default-off, in which case the scheduler is
  /// byte-for-byte the classic adversarial executor.
  TimingOptions timing;

  /// Record the schedule (one StepRecord per step) into SimResult::run.
  /// Defaults on — replay, merging and the exploration tools all read it —
  /// but sweep workers turn it off: a sweep cell folds a run to counters
  /// and never reads the steps, so recording only grows a multi-thousand-
  /// entry vector per job. Off, the returned Run has an empty schedule;
  /// everything else (verdicts, metrics, traces, on_step) is unaffected.
  bool record_run = true;

  /// If nonempty, only these processes are scheduled. Used to produce the
  /// finite partial runs of the partition argument and the Lemma 2.2
  /// merging tests; such runs are not admissible (and need not be).
  ProcessSet restrict_to;

  /// Optional early stop, checked after every macro round.
  std::function<bool(const std::vector<std::unique_ptr<Automaton>>&)> stop_when;

  /// Optional observer invoked after every step with the recorded step and
  /// the automata. Used e.g. to sample the emulated output variables of
  /// transformation algorithms into a RecordedHistory.
  std::function<void(const StepRecord&,
                     const std::vector<std::unique_ptr<Automaton>>&)>
      on_step;

  /// Optional schedule-injection hook (the coverage-guided fuzzer's way of
  /// replaying a genome). When set it is consulted once per live-process
  /// step, BEFORE the seeded delivery policy, with the stepping process,
  /// the global clock, and the number of messages pending for it:
  ///   kInjectDefer  -> use the seeded policy (incl. fairness backstop);
  ///   kInjectLambda -> force a lambda step, overriding the backstop;
  ///   k >= 0        -> deliver pending message k % pending (lambda when
  ///                    pending == 0).
  /// The hook is called even when pending == 0, so an external gene
  /// sequence indexed by step count never desynchronizes from the run.
  /// Injected choices are counted in "scheduler.injected_choices" (the
  /// counter is only registered when the hook is set, so runs without it
  /// keep byte-identical metrics).
  std::function<int(Pid p, Time now, std::size_t pending)> inject_delivery;

  /// Optional structured trace recorder (trace/trace_recorder.hpp). The
  /// scheduler feeds it typed step/send/deliver/oracle-query/decide events;
  /// null costs one pointer test per hook site.
  trace::TraceRecorder* trace = nullptr;

  /// Optional hot-path profile collector (prof/profiler.hpp). When set,
  /// every step's phases — delivery choice, oracle sample, trace hook,
  /// automaton step, payload encode — are rdtsc-timed into it, and the
  /// per-phase call counts accumulated *during this run* are folded into
  /// SimResult::metrics as deterministic `prof.<phase>.calls` counters
  /// (lazily registered, so unprofiled runs keep byte-identical metrics).
  /// Null costs one pointer test per phase boundary.
  prof::ProfileCollector* profile = nullptr;
};

struct SimResult {
  explicit SimResult(FailurePattern fp) : run(std::move(fp)) {}

  Run run;
  std::vector<std::unique_ptr<Automaton>> automata;

  /// Steps actually executed; equals run.steps.size() when the schedule
  /// was recorded, and stays valid when record_run is off.
  std::size_t steps_taken = 0;

  Time end_time = 0;
  bool stopped_by_predicate = false;
  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
  std::size_t undelivered_at_end = 0;

  /// What happened inside the run, as counters/histograms (always
  /// collected; integer-only, so deterministic under any aggregation
  /// order). Keys are documented in EXPERIMENTS.md.
  trace::MetricsRegistry metrics;
};

/// Executes up to opts.max_steps steps of the algorithm given by `make`
/// under failure pattern `fp`, reading FD values from `oracle`.
[[nodiscard]] SimResult simulate(const FailurePattern& fp, Oracle& oracle,
                                 const AutomatonFactory& make,
                                 const SchedulerOptions& opts);

/// Convenience wrapper for consensus algorithms: builds the factory from a
/// ConsensusFactory plus per-process proposals.
[[nodiscard]] SimResult simulate_consensus(const FailurePattern& fp,
                                           Oracle& oracle,
                                           const ConsensusFactory& make,
                                           const std::vector<Value>& proposals,
                                           SchedulerOptions opts);

/// True when every correct process (per fp) has decided.
[[nodiscard]] bool all_correct_decided(
    const FailurePattern& fp,
    const std::vector<std::unique_ptr<Automaton>>& automata);

}  // namespace nucon
