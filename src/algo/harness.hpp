// One-call consensus execution harness.
//
// Wires a consensus factory, a failure pattern and an oracle into the
// scheduler, runs to decision (or the step cap), and summarizes the
// execution: verdict, rounds, message/byte counts. Tests, benches and the
// examples all go through this entry point.
#pragma once

#include "check/consensus_checker.hpp"
#include "fd/failure_detector.hpp"
#include "sim/scheduler.hpp"
#include "trace/metrics.hpp"

namespace nucon {

struct ConsensusRunStats {
  ConsensusVerdict verdict;
  std::vector<std::optional<Value>> decisions;

  /// Largest round reached by any process, and the largest round in which
  /// a correct process decided (0 when nobody decided).
  int max_round = 0;
  int decide_round = 0;

  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
  std::size_t steps = 0;
  Time end_time = 0;
  bool all_correct_decided = false;

  /// Run-interior counters/histograms from the scheduler plus the
  /// harness's own `consensus.*` entries; the sweep engine folds these
  /// into SweepAggregate::metrics in expansion order.
  trace::MetricsRegistry metrics;
};

/// Process p proposes p % 2: the mixed 0/1 proposals every sweep, bench,
/// fuzz genome and contamination search runs with, since divergent
/// estimates are what agreement must survive.
[[nodiscard]] std::vector<Value> mixed_proposals(Pid n);

[[nodiscard]] ConsensusRunStats run_consensus(const FailurePattern& fp,
                                              Oracle& oracle,
                                              const ConsensusFactory& make,
                                              const std::vector<Value>& proposals,
                                              const SchedulerOptions& opts);

}  // namespace nucon
