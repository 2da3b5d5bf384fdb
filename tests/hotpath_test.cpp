// Regression tests for the hot-path allocation overhaul:
//
//   - SchedulerOptions::record_run only controls whether the schedule is
//     recorded; verdicts, decisions, costs and metrics stay bit-identical
//     with it off (the mode sweep workers run in);
//   - broadcast-heavy algorithms share their encoded payloads instead of
//     copying once per destination (the PayloadCounters contract behind
//     bench_hotpath's "reduction" column);
//   - with recording off in the workers, sweep aggregates and the emitted
//     report (timings aside) remain bit-identical for any thread count.
#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include "algo/harness.hpp"
#include "algo/mr_consensus.hpp"
#include "core/stacked_nuc.hpp"
#include "dag/dag_builder.hpp"
#include "fd/scripted.hpp"
#include "obs/report.hpp"
#include "util/shared_bytes.hpp"

namespace nucon {
namespace {

// --- record_run ----------------------------------------------------------

SchedulerOptions mr_opts(bool record) {
  SchedulerOptions opts;
  opts.seed = 7;
  opts.max_steps = 50'000;
  opts.record_run = record;
  return opts;
}

ConsensusRunStats run_mr(bool record) {
  FailurePattern fp(5);
  fp.set_crash(4, 20);
  exp::AlgoOracles oracle(exp::Algo::kMrMajority, fp, 60,
                          FaultyQuorumBehavior::kAdversarialDisjoint, 7);
  return run_consensus(fp, oracle.top(), make_mr_majority(5),
                       {0, 1, 0, 1, 0}, mr_opts(record));
}

SimResult sim_mr(bool record) {
  FailurePattern fp(5);
  fp.set_crash(4, 20);
  exp::AlgoOracles oracle(exp::Algo::kMrMajority, fp, 60,
                          FaultyQuorumBehavior::kAdversarialDisjoint, 7);
  return simulate_consensus(fp, oracle.top(), make_mr_majority(5),
                            {0, 1, 0, 1, 0}, mr_opts(record));
}

TEST(RecordRun, OffLeavesStatsIdentical) {
  const ConsensusRunStats on = run_mr(true);
  const ConsensusRunStats off = run_mr(false);
  EXPECT_EQ(on.verdict.termination, off.verdict.termination);
  EXPECT_EQ(on.verdict.validity, off.verdict.validity);
  EXPECT_EQ(on.verdict.nonuniform_agreement, off.verdict.nonuniform_agreement);
  EXPECT_EQ(on.verdict.uniform_agreement, off.verdict.uniform_agreement);
  EXPECT_EQ(on.decisions, off.decisions);
  EXPECT_EQ(on.max_round, off.max_round);
  EXPECT_EQ(on.decide_round, off.decide_round);
  EXPECT_EQ(on.messages_sent, off.messages_sent);
  EXPECT_EQ(on.bytes_sent, off.bytes_sent);
  EXPECT_EQ(on.steps, off.steps);
  EXPECT_EQ(on.end_time, off.end_time);
  EXPECT_EQ(on.all_correct_decided, off.all_correct_decided);
  EXPECT_EQ(on.metrics, off.metrics);
}

TEST(RecordRun, OffSkipsScheduleOnly) {
  const SimResult on = sim_mr(true);
  const SimResult off = sim_mr(false);
  ASSERT_GT(on.steps_taken, 0u);
  EXPECT_EQ(on.run.steps.size(), on.steps_taken);
  EXPECT_TRUE(off.run.steps.empty());
  EXPECT_EQ(off.steps_taken, on.steps_taken);
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_EQ(off.messages_sent, on.messages_sent);
  EXPECT_EQ(off.bytes_sent, on.bytes_sent);
  EXPECT_EQ(off.undelivered_at_end, on.undelivered_at_end);
  EXPECT_EQ(off.metrics, on.metrics);
}

TEST(RecordRun, SweepWorkerMatchesTracedRun) {
  // run_point (record_run off, the sweep-worker body) must agree with
  // trace_point (record_run on, recorder attached) on every folded field.
  exp::SweepPoint pt;
  pt.algo = exp::Algo::kAnuc;
  pt.n = 5;
  pt.max_steps = 50'000;
  const ConsensusRunStats off = exp::run_point(pt);
  const ConsensusRunStats on = exp::trace_point(pt).stats;
  EXPECT_EQ(on.verdict.solves_nonuniform(), off.verdict.solves_nonuniform());
  EXPECT_EQ(on.decisions, off.decisions);
  EXPECT_EQ(on.steps, off.steps);
  EXPECT_EQ(on.messages_sent, off.messages_sent);
  EXPECT_EQ(on.bytes_sent, off.bytes_sent);
  EXPECT_EQ(on.metrics, off.metrics);
}

// --- shared broadcast payloads -------------------------------------------

double reduction(const PayloadCounters& c) {
  const std::uint64_t total = c.copied_bytes + c.shared_bytes;
  if (total == 0) return 1.0;
  return 1.0 - static_cast<double>(c.copied_bytes) / static_cast<double>(total);
}

PayloadCounters measure_point(exp::Algo algo, Pid n) {
  exp::SweepPoint pt;
  pt.algo = algo;
  pt.n = n;
  pt.max_steps = 30'000;
  const PayloadCounters before = SharedBytes::counters();
  (void)exp::run_point(pt);
  return SharedBytes::counters() - before;
}

// An n-1-way broadcast deep-copies at most one sealed scratch buffer where
// copy-per-destination copied n-1 times, so per-byte the reduction is at
// least (n-2)/(n-1); pure-move payloads push it higher.
TEST(SharedPayloads, AnucBroadcastsShareNotCopy) {
  const Pid n = 6;
  const PayloadCounters c = measure_point(exp::Algo::kAnuc, n);
  ASSERT_GT(c.broadcasts, 0u);
  ASSERT_GT(c.shares, 0u);
  EXPECT_GE(reduction(c), static_cast<double>(n - 2) / (n - 1));
}

// StackedNuc's DAG gossip is per-receiver unicasts, so its aggregate
// reduction says nothing about broadcasts. What the multiplexer must keep:
// the shares of one A_nuc broadcast leave on one framed buffer, and
// reframe_sends deep-copies each distinct inner buffer exactly once.
TEST(SharedPayloads, StackedNucBroadcastsShareNotCopy) {
  const Pid n = 6;
  StackedNuc stacked(0, 1, n);
  FdValue d = FdValue::of_leader(0);
  d.set_quorum(ProcessSet::full(n));
  std::vector<Outgoing> out;
  stacked.step(nullptr, d, out);  // A_nuc's first step: LEAD to all n
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  for (const Outgoing& o : out) {
    EXPECT_EQ(o.payload.raw(), out.front().payload.raw());
    EXPECT_EQ(o.payload.get().front(), 1);  // the A_nuc channel
  }

  const SharedBytes wide(Bytes(100, 7));
  const SharedBytes narrow(Bytes{1, 2, 3});
  const SharedBytes single(Bytes{9});
  std::vector<Outgoing> sends;
  for (Pid q = 0; q < n; ++q) sends.push_back({q, wide});
  sends.push_back({2, single});
  for (Pid q = 0; q < 3; ++q) sends.push_back({q, narrow});
  ByteWriter scratch;
  std::vector<Outgoing> framed;
  const PayloadCounters before = SharedBytes::counters();
  reframe_sends(sends, scratch,
                [](ByteWriter& w, const Bytes& payload) {
                  w.u8(0);
                  w.raw(payload);
                },
                framed);
  const PayloadCounters c = SharedBytes::counters() - before;
  EXPECT_EQ(c.copied_bytes, (100u + 1) + (1 + 1) + (3 + 1));
  ASSERT_EQ(framed.size(), sends.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    EXPECT_EQ(framed[i].to, sends[i].to);
    EXPECT_EQ(framed[i].payload.get().size(), sends[i].payload.size() + 1);
    const bool same_inner =
        i > 0 && sends[i].payload.raw() == sends[i - 1].payload.raw();
    EXPECT_EQ(same_inner,
              i > 0 && framed[i].payload.raw() == framed[i - 1].payload.raw());
  }
}

TEST(SharedPayloads, DagGossipCopiesNothing) {
  // A_DAG gossip moves the freshly serialized DAG into its payload; the
  // n-1 fan-out is all shares, so zero bytes are deep-copied.
  const Pid n = 5;
  FailurePattern fp(n);
  ScriptedOracle oracle([](Pid, Time) { return FdValue{}; });
  SchedulerOptions opts;
  opts.seed = 3;
  opts.max_steps = 4'000;
  const PayloadCounters before = SharedBytes::counters();
  const SimResult res = simulate(fp, oracle, make_adag(n), opts);
  const PayloadCounters c = SharedBytes::counters() - before;
  ASSERT_GT(res.steps_taken, 0u);
  ASSERT_GT(c.broadcasts, 0u);
  ASSERT_GT(c.shares, 0u);
  EXPECT_EQ(c.copied_bytes, 0u);
}

// --- thread-count determinism with recording off -------------------------

TEST(SweepDeterminism, ReportIdenticalAcrossThreadCounts) {
  exp::SweepGrid grid;
  grid.algos = {exp::Algo::kAnuc, exp::Algo::kMrSigma};
  grid.ns = {5};
  grid.seed_count = 3;
  grid.max_steps = 30'000;

  const exp::SweepResult one = exp::SweepRunner(1).run(grid);
  const exp::SweepResult eight = exp::SweepRunner(8).run(grid);

  ASSERT_EQ(one.jobs.size(), eight.jobs.size());
  EXPECT_EQ(one.aggregate.runs, eight.aggregate.runs);
  EXPECT_EQ(one.aggregate.undecided, eight.aggregate.undecided);
  EXPECT_EQ(one.aggregate.expectation_failures,
            eight.aggregate.expectation_failures);
  EXPECT_EQ(one.aggregate.steps.sum(), eight.aggregate.steps.sum());
  EXPECT_EQ(one.aggregate.messages.sum(), eight.aggregate.messages.sum());
  EXPECT_EQ(one.aggregate.kbytes.sum(), eight.aggregate.kbytes.sum());
  EXPECT_EQ(one.aggregate.decide_rounds.sum(),
            eight.aggregate.decide_rounds.sum());
  EXPECT_EQ(one.aggregate.metrics, eight.aggregate.metrics);

  obs::BenchReport r1;
  obs::BenchReport r8;
  r1.name = r8.name = "hotpath-test";
  r1.sweeps.push_back(obs::section_of("total", "grid", one));
  r8.sweeps.push_back(obs::section_of("total", "grid", eight));
  // Timings aside, the report is a pure function of the serial fold.
  EXPECT_EQ(obs::report_json(r1, false), obs::report_json(r8, false));
}

}  // namespace
}  // namespace nucon
