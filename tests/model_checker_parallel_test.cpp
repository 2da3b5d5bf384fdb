// Determinism and reduction guarantees of the incremental model-checking
// engine at n = 3: the verdict, witness, and every counter must be
// bit-identical across thread counts, the sleep-set POR must change only
// the arrival counts (never the verdict or the set of reached states),
// and the §6.3-style contaminated histories must keep producing the
// paper's violation for the naive quorum substitution while A_nuc
// exhausts the same spaces violation-free.
#include "check/model_checker.hpp"

#include <gtest/gtest.h>

#include "algo/mr_consensus.hpp"
#include "core/anuc.hpp"

namespace nucon {
namespace {

/// The n=3 contamination history of §6.3: processes 0 and 1 share quorum
/// {0, 1} under leader 0 while process 2 is partitioned behind quorum {2}
/// with itself as leader — legal for Sigma^nu when 2 is deemed faulty,
/// yet nobody crashes in the explored runs.
FdValue split_quorum_fd(Pid p, int /*own_step*/) {
  FdValue v = FdValue::of_quorum(p < 2 ? ProcessSet{0, 1}
                                       : ProcessSet::single(2));
  v.set_leader(p < 2 ? 0 : 2);
  return v;
}

/// A sharper contamination with a shallow witness: 0 and 2 are each
/// partitioned behind singleton quorums (so both decide alone within a
/// few steps) while 1 is the contaminated bystander trusting {0, 1}.
FdValue lone_deciders_fd(Pid p, int /*own_step*/) {
  FdValue v = FdValue::of_quorum(p == 1 ? ProcessSet{0, 1}
                                        : ProcessSet::single(p));
  v.set_leader(p == 1 ? 0 : p);
  return v;
}

McOptions triple(int depth, std::size_t budget) {
  McOptions opts;
  opts.n = 3;
  opts.make = make_mr_fd_quorum(3);
  opts.proposals = {0, 0, 1};
  opts.fd = split_quorum_fd;
  opts.max_depth = depth;
  opts.max_states = budget;
  return opts;
}

TEST(ModelCheckerParallel, EightThreadsBitIdenticalOnExhaustedSpace) {
  McOptions opts = triple(8, 4'000'000);
  const McResult serial = model_check_consensus(opts);
  ASSERT_TRUE(serial.exhausted);
  EXPECT_EQ(serial.hash_collisions, 0u);

  opts.threads = 8;
  const McResult parallel = model_check_consensus(opts);
  EXPECT_EQ(serial, parallel);
}

TEST(ModelCheckerParallel, EightThreadsBitIdenticalUnderStateBudget) {
  // The budget cut hits mid-layer; which arrivals get admitted (and in
  // what order the witness metadata is assigned) must not depend on the
  // thread count either.
  McOptions opts = triple(10, 200'000);
  const McResult serial = model_check_consensus(opts);
  ASSERT_FALSE(serial.exhausted);

  opts.threads = 8;
  const McResult parallel = model_check_consensus(opts);
  EXPECT_EQ(serial, parallel);
}

TEST(ModelCheckerParallel, PorChangesArrivalsButNotVerdictOrStates) {
  McOptions opts = triple(8, 4'000'000);
  const McResult with_por = model_check_consensus(opts);
  opts.use_por = false;
  const McResult without = model_check_consensus(opts);

  // Identical coverage and verdict...
  EXPECT_EQ(with_por.violation_found, without.violation_found);
  EXPECT_EQ(with_por.violation, without.violation);
  EXPECT_EQ(with_por.witness, without.witness);
  EXPECT_EQ(with_por.states_explored, without.states_explored);
  EXPECT_EQ(with_por.peak_depth, without.peak_depth);
  EXPECT_TRUE(with_por.exhausted);
  EXPECT_TRUE(without.exhausted);
  // ...reached through measurably fewer arrivals.
  EXPECT_GT(with_por.por_skipped, 0u);
  EXPECT_EQ(without.por_skipped, 0u);
  EXPECT_LT(with_por.states_deduped, without.states_deduped);
  EXPECT_EQ(without.states_reexpanded, 0u);
}

TEST(ModelCheckerParallel, FindsTripleContaminationAndWitnessReplays) {
  McOptions opts;
  opts.n = 3;
  opts.make = make_mr_fd_quorum(3);
  opts.proposals = {0, 0, 1};
  opts.fd = lone_deciders_fd;
  opts.max_depth = 10;
  opts.max_states = 4'000'000;

  const McResult result = model_check_consensus(opts);
  ASSERT_TRUE(result.violation_found);
  EXPECT_NE(result.violation.find("decided 0 vs 1"), std::string::npos)
      << result.violation;
  // BFS guarantees a minimum-depth witness; the two lone deciders reach
  // disagreement within 8 steps.
  EXPECT_LE(result.witness.size(), 8u);

  const auto replayed = replay_witness(opts, result.witness);
  ASSERT_TRUE(replayed.has_value()) << "witness does not replay";
  EXPECT_EQ(*replayed, result.violation);

  // The reduction must not even change which witness is reported: BFS
  // reaches the violating configuration at the same layer either way,
  // through the same canonically-first parent.
  opts.use_por = false;
  const McResult unreduced = model_check_consensus(opts);
  EXPECT_EQ(unreduced.witness, result.witness);
  EXPECT_EQ(unreduced.violation, result.violation);
}

TEST(ModelCheckerParallel, AnucExhaustsTheContaminatedSpaceViolationFree) {
  // A_nuc consuming the same split-quorum contamination: its distrust
  // machinery must keep every explored schedule agreement-safe, and with
  // snapshot/restore state encodings the whole depth-8 space is certified
  // (exhausted), not just sampled.
  McOptions opts = triple(8, 4'000'000);
  opts.make = make_anuc(3);

  const McResult result = model_check_consensus(opts);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted)
      << "state budget hit after " << result.states_explored;
  EXPECT_GT(result.states_explored, 10'000u);
  EXPECT_EQ(result.hash_collisions, 0u);
}

TEST(ModelCheckerParallel, BaselineEngineAgreesOnVerdicts) {
  // The frozen replay-based baseline must reach the same verdicts as the
  // incremental engine (its witness indexing and arrival accounting
  // differ, so only the verdicts are comparable).
  McOptions opts;
  opts.n = 2;
  opts.make = make_mr_fd_quorum(2);
  opts.proposals = {0, 1};
  opts.fd = [](Pid p, int) {
    FdValue v = FdValue::of_quorum(ProcessSet::single(p));
    v.set_leader(p);
    return v;
  };
  opts.max_depth = 12;
  opts.max_states = 2'000'000;

  const McResult incremental = model_check_consensus(opts);
  const McResult baseline = model_check_consensus_replay_baseline(opts);
  EXPECT_TRUE(incremental.violation_found);
  EXPECT_EQ(incremental.violation_found, baseline.violation_found);

  McOptions safe = triple(6, 4'000'000);
  const McResult inc_safe = model_check_consensus(safe);
  const McResult base_safe = model_check_consensus_replay_baseline(safe);
  EXPECT_FALSE(inc_safe.violation_found) << inc_safe.violation;
  EXPECT_EQ(inc_safe.violation_found, base_safe.violation_found);
  // Unique-state coverage agrees too: the baseline counts arrivals in
  // states_explored, so its unique count is explored minus deduped.
  EXPECT_EQ(inc_safe.states_explored,
            base_safe.states_explored - base_safe.states_deduped);
}

}  // namespace
}  // namespace nucon
