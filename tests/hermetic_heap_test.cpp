// A finished run leaves nothing on its thread's heap: every byte a run
// allocates is freed by the time run_point returns, so no cache carries
// one run's payloads or decodes into the next. Counts live heap bytes with
// a replaced global operator new/delete, which is why this suite is a
// binary of its own. Each allocation's size rides in a header in front of
// the block (not malloc_usable_size), so the count is exact under the
// sanitizers too.
//
// Kept to n <= 64: above that, ProcessSet's thread-local block pool keeps
// freed blocks for reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "exp/sweep.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

/// Room for the size, keeping the block max_align_t-aligned.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
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

}  // namespace
}  // namespace nucon
