// Determinism and reduction guarantees of the incremental model-checking
// engine at n = 3: the verdict, witness, and every counter must be
// bit-identical across thread counts, the sleep-set POR must change only
// the arrival counts (never the verdict or the set of reached states),
// and the §6.3-style contaminated histories must keep producing the
// paper's violation for the naive quorum substitution while A_nuc
// exhausts the same spaces violation-free. The engine is also held to an
// exact reference (tests/mc_reference.hpp), to configurations that share a
// visited key, and to pinned work counters on the benchmark's search.
#include "check/model_checker.hpp"

#include <gtest/gtest.h>

#include "algo/mr_consensus.hpp"
#include "check/mc_store.hpp"
#include "core/anuc.hpp"
#include "mc_reference.hpp"

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

/// The n=2 partition history: each process trusts only itself.
FdValue singleton_fd(Pid p, int /*own_step*/) {
  FdValue v = FdValue::of_quorum(ProcessSet::single(p));
  v.set_leader(p);
  return v;
}

McOptions pair_of_singletons(int depth) {
  McOptions opts;
  opts.n = 2;
  opts.make = make_mr_fd_quorum(2);
  opts.proposals = {0, 1};
  opts.fd = singleton_fd;
  opts.max_depth = depth;
  return opts;
}

/// states_explored, with and without POR, is the number of distinct
/// configurations the byte-exact reference reaches, and the verdicts
/// agree.
void expect_matches_reference(McOptions opts) {
  const testref::McReference ref = testref::reference_search(opts);
  for (const bool por : {true, false}) {
    opts.use_por = por;
    const McResult r = model_check_consensus(opts);
    EXPECT_EQ(r.violation_found, ref.violation_found) << "por=" << por;
    if (ref.violation_found) {
      EXPECT_EQ(static_cast<int>(r.witness.size()), ref.violation_depth);
      continue;
    }
    EXPECT_TRUE(r.exhausted) << "por=" << por;
    EXPECT_EQ(r.states_explored, ref.distinct) << "por=" << por;
  }
}

TEST(ModelCheckerParallel, CountsWhatTheExactReferenceCounts) {
  {
    SCOPED_TRACE("MR, split quorum, depth 6");
    expect_matches_reference(triple(6, 4'000'000));
  }
  {
    SCOPED_TRACE("A_nuc, split quorum, depth 6");
    McOptions anuc = triple(6, 4'000'000);
    anuc.make = make_anuc(3);
    expect_matches_reference(anuc);
  }
  {
    SCOPED_TRACE("MR, n=2 singleton quorums, depth 7");
    expect_matches_reference(pair_of_singletons(7));
  }
  {
    // One step deeper the two singletons disagree: the reference and the
    // engine find it at the same minimum depth.
    SCOPED_TRACE("MR, n=2 singleton quorums, depth 10");
    expect_matches_reference(pair_of_singletons(10));
  }
}

TEST(ModelCheckerParallel, ConfigurationsSharingAKeyAreBothKept) {
  mc::ConfigStore store;
  const mc::Key128 key{0x1234, 0x5678};
  const std::vector<std::uint32_t> a{1, 2, 3};
  const std::vector<std::uint32_t> b{1, 2, 4};
  const std::uint32_t ia = store.insert(key, a);

  const mc::ConfigStore::Found miss = store.find(key, b);
  EXPECT_EQ(miss.id, mc::kNoId);
  EXPECT_TRUE(miss.key_seen);
  const std::uint32_t ib = store.insert(key, b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(key, a).id, ia);
  EXPECT_EQ(store.find(key, b).id, ib);
  EXPECT_TRUE(std::ranges::equal(store[ia].content, a));
  EXPECT_TRUE(std::ranges::equal(store[ib].content, b));
  EXPECT_FALSE(store.find({0x1234, 0x5679}, a).key_seen);
}

TEST(ModelCheckerParallel, ASearchOnOneVisitedKeyExpandsEveryConfiguration) {
  // Every configuration on one key: a key-only visited set would stop
  // after the root. The exact store keeps and expands them all, so
  // everything but the collision count matches the real keys' search.
  McOptions opts = triple(5, 4'000'000);
  const McResult keyed = model_check_consensus(opts);
  ASSERT_TRUE(keyed.exhausted);
  ASSERT_EQ(keyed.hash_collisions, 0u);
  for (const unsigned threads : {1u, 2u}) {
    opts.threads = threads;
    McResult one_key = mc::model_check_masked(opts, mc::Key128{});
    EXPECT_EQ(one_key.hash_collisions, keyed.states_explored - 1);
    one_key.hash_collisions = 0;
    EXPECT_EQ(one_key, keyed) << "threads=" << threads;
  }
}

TEST(ModelCheckerParallel, VerifySearchWorkCountersArePinned) {
  // perfbench's `verify` search: A_nuc, split quorum, depth 10. Every
  // counter is exact, so any change to what the engine explores, or to
  // what it interns, shows here. The tables hold 855 sections and 22
  // payloads.
  McOptions opts = triple(10, 100'000'000);
  opts.make = make_anuc(3);
  const McResult serial = model_check_consensus(opts);
  EXPECT_TRUE(serial.exhausted);
  EXPECT_FALSE(serial.violation_found);
  EXPECT_EQ(serial.states_explored, 513'251u);
  EXPECT_EQ(serial.states_deduped, 758'383u);
  EXPECT_EQ(serial.states_reexpanded, 20'862u);
  EXPECT_EQ(serial.por_skipped, 1'327'048u);
  EXPECT_EQ(serial.hash_collisions, 0u);
  EXPECT_EQ(serial.sections_interned, 855u);
  EXPECT_EQ(serial.payloads_interned, 22u);

  opts.threads = 2;
  EXPECT_EQ(model_check_consensus(opts), serial);
}

}  // namespace
}  // namespace nucon
