// Parallel experiment sweep engine.
//
// A SweepPoint is one fully self-describing experiment: algorithm, system
// size, crash count/timing, oracle family knobs, step budget and seed.
// Everything a run needs (failure pattern, oracle stack, proposals,
// scheduler options) is derived deterministically from the point, so any
// point re-executes bit-for-bit anywhere — on a worker thread of the
// SweepRunner, or serially through replay_failure() when a run goes wrong.
//
// A SweepGrid is the declarative cross product the benches and
// tools/nucon_explore expand (algorithm x n x faults x stabilization x
// faulty-module behavior x seed range). SweepRunner executes the expanded
// points on a work-stealing ThreadPool and then folds the per-point
// ConsensusRunStats into a SweepAggregate *serially, in expansion order*,
// so aggregates are bit-identical for any thread count (floating-point
// accumulation order never depends on scheduling).
//
// Any point whose verdict misses its algorithm's expectation yields a
// ReplayArtifact — a one-line, parseable description that
// `nucon_explore --replay '<artifact>'` (or replay_failure() in code)
// re-executes serially for debugging.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/harness.hpp"
#include "fd/sigma_nu.hpp"
#include "prof/profiler.hpp"
#include "trace/trace_recorder.hpp"
#include "util/stats.hpp"

namespace nucon {
class FdBoard;  // fd/impl/host.hpp
}  // namespace nucon

namespace nucon::exp {

/// Every consensus algorithm the library can run under its canonical
/// oracle family (the same registry tools/nucon_explore exposes).
enum class Algo {
  kAnuc,         // A_nuc with (Omega, Sigma^nu+)
  kStacked,      // StackedNuc with raw (Omega, Sigma^nu)
  kMrMajority,   // Mostefaoui-Raynal, majorities, Omega only
  kMrSigma,      // MR with Sigma quorums, (Omega, Sigma)
  kNaive,        // the broken §6.3 substitution: MR quorums over Sigma^nu
  kCt,           // Chandra-Toueg with <>S
  kBenOr,        // randomized, no oracle
  kFromScratch,  // Thm 7.1 IF stack: election + Sigma-from-majority + MR
};

[[nodiscard]] const char* algo_name(Algo a);
[[nodiscard]] std::optional<Algo> parse_algo(const std::string& name);

/// What a correct run of the algorithm must satisfy. kNone marks algorithms
/// that are *expected* to misbehave (the naive substitution), so their
/// violations are counted but do not spawn replay artifacts.
enum class Expect { kNonuniform, kUniform, kNone };
[[nodiscard]] Expect expectation(Algo a);
[[nodiscard]] const char* expect_name(Expect e);

/// Where a point's Omega/<>S component comes from. kGenerated reads the
/// ground-truth failure pattern (the classic oracles); kImplemented runs
/// heartbeat modules (fd/impl/) beside the algorithm under the timing-aware
/// scheduler and feeds their measured outputs through the oracle interface.
/// Quorum components (Sigma family) stay generated either way — the
/// heartbeat automata implement leader/suspect detectors only.
enum class FdSource { kGenerated, kImplemented };
[[nodiscard]] const char* fd_source_name(FdSource s);

/// True for algorithms whose canonical oracle has a heartbeat-implementable
/// component (everything but ben-or and from-scratch, which consume no
/// Omega/<>S from the oracle).
[[nodiscard]] bool supports_implemented_fd(Algo a);

/// The canonical oracle stack of an algorithm: owns every layer and exposes
/// the composed top the run queries. Factored out of the sweep engine's
/// per-point setup so external drivers (tools/nucon_explore, the fuzzer in
/// src/fuzz) construct byte-for-byte the same oracles — seed offsets
/// included — as the sweeps; any configuration replays identically
/// everywhere. The Sigma-family layers carry a per-process quorum-window
/// memo (fd/oracle_base.hpp): mutable state that changes no answer, so
/// every job builds its own stack, nothing is shared across threads, and
/// nothing carries over from one run to the next.
class AlgoOracles {
 public:
  /// With a non-null `board`, the stack's Omega/<>S layer is an
  /// ImplementedOracle over it (the hosted heartbeat modules' output
  /// variables) instead of a generated oracle; quorum layers and their
  /// seed offsets are unchanged. ben-or / from-scratch reject a board.
  AlgoOracles(Algo algo, const FailurePattern& fp, Time stabilize,
              FaultyQuorumBehavior faulty_mode, std::uint64_t seed,
              std::shared_ptr<FdBoard> board = nullptr, Time hold = 8);

  [[nodiscard]] Oracle& top() { return *top_; }

 private:
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    owned_.push_back(std::make_unique<T>(std::forward<Args>(args)...));
    top_ = owned_.back().get();
    return static_cast<T&>(*top_);
  }

  std::vector<std::unique_ptr<Oracle>> owned_;
  Oracle* top_ = nullptr;
};

/// The consensus factory an algorithm denotes at system size n (seed only
/// feeds Ben-Or's coin). Same registry the sweep points run.
[[nodiscard]] ConsensusFactory consensus_factory_of(Algo a, Pid n,
                                                    std::uint64_t seed);

/// One grid point == one deterministic run.
struct SweepPoint {
  Algo algo = Algo::kAnuc;
  Pid n = 5;
  Pid faults = 1;
  /// Oracle stabilization time (Omega and the quorum component).
  Time stabilize = 120;
  /// Redraw interval for the quorum detectors' noisy component (SigmaOptions
  /// ::hold and friends). The default matches the oracle defaults and is the
  /// adversarial-noise regime: quorums keep churning forever relative to a
  /// round (3n^2 steps), so histories grow with every await step. Scaling
  /// benches raise it to ~rounds so they measure the post-GST regime where
  /// the quorum stream is stable; printed in specs only off-default, so
  /// pre-existing artifacts (and golden traces) are untouched.
  Time hold = 8;
  /// 0 spreads crashes randomly before `stabilize`; > 0 pins them all here.
  Time crash_at = 0;
  FaultyQuorumBehavior faulty_mode = FaultyQuorumBehavior::kAdversarialDisjoint;
  std::int64_t max_steps = 200'000;
  std::uint64_t seed = 1;
  /// kImplemented hosts heartbeat detectors beside the algorithm and runs
  /// under the timing-aware scheduler; artifacts print an `fd=` token only
  /// for this non-default value, so pre-existing artifact strings (and the
  /// golden traces embedding them) are untouched.
  FdSource fd = FdSource::kGenerated;

  friend bool operator==(const SweepPoint&, const SweepPoint&) = default;
};

/// Declarative cross product. expand() emits points in a fixed nested order
/// (algo, n, faults, stabilize, mode, seed) and silently skips infeasible
/// combinations (faults >= n).
struct SweepGrid {
  std::vector<Algo> algos = {Algo::kAnuc};
  std::vector<Pid> ns = {5};
  std::vector<Pid> fault_counts = {1};
  std::vector<Time> stabilizes = {120};
  std::vector<FaultyQuorumBehavior> faulty_modes = {
      FaultyQuorumBehavior::kAdversarialDisjoint};
  Time crash_at = 0;
  std::uint64_t seed_begin = 1;
  int seed_count = 1;
  std::int64_t max_steps = 200'000;
  FdSource fd = FdSource::kGenerated;

  [[nodiscard]] std::vector<SweepPoint> expand() const;
};

/// Serializable pointer to a failed run: `to_string()` round-trips through
/// `parse()`, and the CLI accepts it verbatim (--replay).
struct ReplayArtifact {
  SweepPoint point;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<ReplayArtifact> parse(
      const std::string& line);

  friend bool operator==(const ReplayArtifact&, const ReplayArtifact&) = default;
};

struct JobOutcome {
  SweepPoint point;
  ConsensusRunStats stats;
  /// Verdict measured against expectation(point.algo).
  bool ok = true;
  /// Hot-path phase profile of this job (empty unless the runner had
  /// set_profiling(true)). Call counts are deterministic; tick timings
  /// are wall-clock.
  prof::ProfileCollector profile;
};

/// Merged view of a sweep, folded serially in expansion order.
struct SweepAggregate {
  std::int64_t runs = 0;
  std::int64_t undecided = 0;              // some correct process never decided
  std::int64_t termination_failures = 0;   // verdict.termination false
  std::int64_t uniform_violations = 0;
  std::int64_t nonuniform_violations = 0;
  std::int64_t expectation_failures = 0;   // !JobOutcome::ok

  Accumulator decide_rounds;  // over runs that decided (decide_round > 0)
  Accumulator steps;
  Accumulator messages;
  Accumulator kbytes;

  /// Per-job MetricsRegistry entries merged serially in expansion order
  /// (integer-only, so bit-identical for any thread count).
  trace::MetricsRegistry metrics;

  /// One artifact per failed-expectation point, in expansion order.
  std::vector<ReplayArtifact> failures;

  /// When the runner has a trace dir: one JSONL trace path per entry of
  /// `failures`, same order (empty otherwise).
  std::vector<std::string> failure_trace_paths;
};

struct SweepResult {
  std::vector<JobOutcome> jobs;  // expansion order, independent of threads
  SweepAggregate aggregate;
  /// Wall-clock of the parallel execution phase (not deterministic; never
  /// part of the aggregate).
  double wall_seconds = 0.0;
  /// Wall-clock of the serial fold phase, including failure-trace
  /// attachment (not deterministic either).
  double fold_seconds = 0.0;
  /// Simulation throughput of the parallel phase: total simulated steps
  /// across all jobs divided by wall_seconds. Derived from wall-clock, so
  /// like the fields above it never enters the aggregate and is emitted in
  /// reports only alongside the other timing fields.
  double steps_per_second = 0.0;
  /// Per-job profiles merged serially in expansion order (empty unless
  /// the runner had set_profiling(true)). Call counts deterministic, tick
  /// timings wall-clock — reports emit them behind include_timings only.
  prof::ProfileCollector profile;
};

class SweepRunner {
 public:
  /// threads == 0 picks hardware concurrency.
  explicit SweepRunner(unsigned threads = 0) : threads_(threads) {}

  /// Auto-attach a JSONL trace to every failed-expectation job: each one
  /// is re-executed serially (bit-identical by construction) with a
  /// TraceRecorder and written to `dir/failure-<index>.trace.jsonl`; the
  /// paths land in SweepAggregate::failure_trace_paths next to the replay
  /// artifacts. Empty (the default) disables attachment.
  void set_trace_dir(std::string dir) { trace_dir_ = std::move(dir); }

  /// Attach a hot-path ProfileCollector to every job's scheduler run.
  /// Each job profiles into its own collector (rdtsc probes are not
  /// thread-safe to share) and the runner merges them serially in
  /// expansion order into SweepResult::profile; the deterministic
  /// `prof.<phase>.calls` counters land in each job's metrics and hence
  /// the aggregate, bit-identical for any thread count.
  void set_profiling(bool on) { profiling_ = on; }

  /// After every run(), write a versioned JSON report to `path`: one
  /// section per grid cell (all seeds of one algo/n/faults/stab/mode
  /// combination) with verdict counts and folded metrics, a "total"
  /// section with the failure artifacts and attached trace paths, and
  /// wall-clock per phase (execute/fold). The report body is a pure
  /// function of the fold, so it is bit-identical for any thread count
  /// (timing fields aside); obs/report.hpp defines the schema. Empty (the
  /// default) disables report writing.
  void set_report_path(std::string path) { report_path_ = std::move(path); }

  [[nodiscard]] SweepResult run(const std::vector<SweepPoint>& points) const;
  [[nodiscard]] SweepResult run(const SweepGrid& grid) const;

 private:
  unsigned threads_;
  bool profiling_ = false;
  std::string trace_dir_;
  std::string report_path_;
};

/// The failure pattern a point deterministically denotes.
[[nodiscard]] FailurePattern failure_pattern_of(const SweepPoint& pt);

/// The proposals a point runs with (alternating 0/1, the benches' mix).
[[nodiscard]] std::vector<Value> proposals_of(const SweepPoint& pt);

/// Executes one point to its stats summary (this is the per-job body the
/// runner schedules; callable serially too). A non-null `profile`
/// receives the run's rdtsc phase breakdown and makes the deterministic
/// `prof.<phase>.calls` counters appear in the returned metrics.
[[nodiscard]] ConsensusRunStats run_point(
    const SweepPoint& pt, prof::ProfileCollector* profile = nullptr);

/// Full simulation of one point, for tracing/debugging (keeps the recorded
/// Run and the automata, which run_point folds away).
[[nodiscard]] SimResult simulate_point(const SweepPoint& pt);

/// Serial re-execution of a failed point. Identical to run_point by
/// construction — the guarantee a replay artifact exists to exploit.
[[nodiscard]] ConsensusRunStats replay_failure(const ReplayArtifact& artifact);

/// One point executed with a TraceRecorder attached: the stats summary
/// plus the JSONL trace document (meta line, typed events, trailing
/// verdict line). The JSONL is a pure function of the point, so it is
/// byte-identical wherever it is produced.
struct TracedRun {
  ConsensusRunStats stats;
  std::string jsonl;
};
[[nodiscard]] TracedRun trace_point(const SweepPoint& pt,
                                    trace::TraceRecorder::Options opts = {});

}  // namespace nucon::exp
