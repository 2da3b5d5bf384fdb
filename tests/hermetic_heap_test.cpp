// A finished run leaves nothing on its thread's heap: every byte a run or
// a model-checker search allocates is freed by the time run_point or
// model_check_consensus returns, so no cache carries one run's payloads,
// decodes or transitions into the next. Counts live heap bytes with a
// replaced global operator new/delete, which is why this suite is a binary
// of its own. Each allocation's size rides in a header in front of the
// block (not malloc_usable_size), so the count is exact under the
// sanitizers too. Every case first runs a smaller job of the same kind, so
// first-use statics are in place before the count starts. The same hook
// counts allocations, so a case can bound the model checker's per state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "check/model_checker.hpp"
#include "core/anuc.hpp"
#include "exp/sweep.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_allocations{0};

/// Room for the size, keeping the block max_align_t-aligned.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace nucon {
namespace {

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

exp::SweepPoint point(exp::Algo algo, Pid n) {
  exp::SweepPoint pt;
  pt.algo = algo;
  pt.n = n;
  pt.faults = 1;
  pt.max_steps = 20'000;
  pt.seed = 3;
  return pt;
}

TEST(HermeticRun, AFinishedRunLeavesNothingOnItsThreadsHeap) {
  const exp::SweepPoint anuc = point(exp::Algo::kAnuc, 12);  // hold = 8
  const exp::SweepPoint stacked = point(exp::Algo::kStacked, 6);
  ASSERT_EQ(anuc.hold, 8);
  (void)exp::run_point(anuc);  // warm-up: first-use statics

  const std::int64_t before_anuc = live_bytes();
  (void)exp::run_point(anuc);
  EXPECT_EQ(live_bytes(), before_anuc);

  const std::int64_t before_stacked = live_bytes();
  (void)exp::run_point(stacked);
  EXPECT_EQ(live_bytes(), before_stacked);
}

// Above 64 processes every ProcessSet with a member past pid 63 holds a
// heap block, so this run allocates and frees blocks on every step.
TEST(HermeticRun, ARunPast64ProcessesLeavesNothingOnItsThreadsHeap) {
  exp::SweepPoint wide = point(exp::Algo::kAnuc, 128);
  wide.hold = wide.max_steps;  // post-GST: one quorum window
  exp::SweepPoint warm_up = wide;
  warm_up.max_steps = 50;
  (void)exp::run_point(warm_up);

  const std::int64_t before = live_bytes();
  (void)exp::run_point(wide);
  EXPECT_EQ(live_bytes(), before);
}

// The same post-GST point, counted in allocations per step. At n=64 no set
// owns a block; at n=128 every quorum does, so each copy of a quorum on the
// step path (oracle to step record to A_nuc's get_quorum) would cost one
// block. Release builds only: Debug builds cross-check every distrust query
// against QuorumHistory's quadratic recompute, which allocates per call.
TEST(HermeticRun, AStepPast64ProcessesCopiesNoQuorum) {
#ifndef NDEBUG
  GTEST_SKIP() << "the !NDEBUG QuorumHistory cross-checks allocate on every "
                  "distrust query";
#else
  for (const auto& [n, bound] : {std::pair{64, 1.1}, std::pair{128, 1.75}}) {
    exp::SweepPoint pt = point(exp::Algo::kAnuc, n);
    pt.hold = pt.max_steps;
    exp::SweepPoint warm_up = pt;
    warm_up.max_steps = 50;
    (void)exp::run_point(warm_up);

    const std::int64_t before = allocations();
    const std::size_t steps = exp::run_point(pt).steps;
    const auto made = static_cast<double>(allocations() - before);
    ASSERT_EQ(steps, 20'000u);
    EXPECT_LE(made / static_cast<double>(steps), bound)
        << "n=" << n << ": " << made << " allocations for " << steps
        << " steps";
  }
#endif
}

/// The model checker's reference search: A_nuc at n=3 under the §6.3
/// split-quorum history (0 and 1 share quorum {0,1} under leader 0; 2 sits
/// behind {2} and trusts itself).
McOptions split_quorum_search(int depth, unsigned threads) {
  McOptions opts;
  opts.n = 3;
  opts.make = make_anuc(3);
  opts.proposals = {0, 0, 1};
  opts.fd = [](Pid p, int /*own_step*/) {
    FdValue v =
        FdValue::of_quorum(p < 2 ? ProcessSet{0, 1} : ProcessSet::single(2));
    v.set_leader(p < 2 ? 0 : 2);
    return v;
  };
  opts.max_depth = depth;
  opts.threads = threads;
  return opts;
}

TEST(HermeticRun, ASerialSearchLeavesNothingOnItsThreadsHeap) {
  (void)model_check_consensus(split_quorum_search(1, 1));

  const std::int64_t before = live_bytes();
  const std::size_t states =
      model_check_consensus(split_quorum_search(6, 1)).states_explored;
  EXPECT_EQ(live_bytes(), before);
  EXPECT_GT(states, 100u);
}

TEST(HermeticRun, AParallelSearchLeavesNothingOnTheHeap) {
  (void)model_check_consensus(split_quorum_search(2, 2));

  const std::int64_t before = live_bytes();
  const std::size_t states =
      model_check_consensus(split_quorum_search(6, 2)).states_explored;
  EXPECT_EQ(live_bytes(), before);
  EXPECT_GT(states, 100u);
}

// A configuration is stored as words in an arena, its sleep set in a
// shared vector, and a transition's outcome in its Worker's arenas, so
// what allocates per state is only the memo's misses (each one restores,
// steps and encodes an automaton) and the containers' growth.
TEST(HermeticRun, ASearchAllocatesAtMostTwicePerState) {
  for (const unsigned threads : {1u, 2u}) {
    (void)model_check_consensus(split_quorum_search(2, threads));

    const std::int64_t before = allocations();
    const std::size_t states =
        model_check_consensus(split_quorum_search(8, threads)).states_explored;
    const auto made = static_cast<double>(allocations() - before);
    EXPECT_GT(states, 10'000u);
    EXPECT_LE(made / static_cast<double>(states), 2.0)
        << "threads=" << threads << ": " << made << " allocations for "
        << states << " states";
  }
}

}  // namespace
}  // namespace nucon
