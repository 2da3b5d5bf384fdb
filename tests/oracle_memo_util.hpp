// Differential check of the Sigma-family oracles' window memo
// (fd/oracle_base.hpp, WindowMemo) against the stateless draw.
//
// The reference answer for a query (p, t) is a fresh oracle's first
// answer: a never-queried oracle has an empty memo, so its first answer is
// the stateless draw itself. The memoized side is one oracle queried in
// order, the way a run queries it. Shared by oracle_property_test (n <= 7)
// and wide_scale_test (n > 64).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fd/sigma.hpp"
#include "fd/sigma_nu.hpp"
#include "util/rng.hpp"

namespace nucon::testutil {

struct MemoCase {
  std::string name;
  std::function<std::unique_ptr<Oracle>()> make;
};

/// Every Sigma-family configuration over `fp`: Sigma under both strategies
/// (the majority one only when a majority is correct), and Sigma^nu and
/// Sigma^nu+ under every faulty-module behavior.
inline std::vector<MemoCase> sigma_family_cases(const FailurePattern& fp,
                                                Time stabilize, Time hold,
                                                std::uint64_t seed) {
  std::vector<MemoCase> out;
  for (const auto strategy : {SigmaStrategy::kKernel, SigmaStrategy::kMajority}) {
    if (strategy == SigmaStrategy::kMajority &&
        !is_majority(fp.correct(), fp.n())) {
      continue;
    }
    SigmaOptions o;
    o.stabilize_at = stabilize;
    o.strategy = strategy;
    o.seed = seed;
    o.hold = hold;
    out.push_back({std::string("sigma/") +
                       (strategy == SigmaStrategy::kKernel ? "kernel" : "majority"),
                   [&fp, o] { return std::make_unique<SigmaOracle>(fp, o); }});
  }
  const std::pair<FaultyQuorumBehavior, const char*> behaviors[] = {
      {FaultyQuorumBehavior::kBenign, "benign"},
      {FaultyQuorumBehavior::kAdversarialDisjoint, "adversarial"},
      {FaultyQuorumBehavior::kNoise, "noise"}};
  for (const auto& [behavior, name] : behaviors) {
    SigmaNuOptions nu;
    nu.stabilize_at = stabilize;
    nu.faulty = behavior;
    nu.seed = seed;
    nu.hold = hold;
    out.push_back({std::string("sigma_nu/") + name,
                   [&fp, nu] { return std::make_unique<SigmaNuOracle>(fp, nu); }});
    SigmaNuPlusOptions plus;
    plus.stabilize_at = stabilize;
    plus.faulty = behavior;
    plus.seed = seed;
    plus.hold = hold;
    out.push_back({std::string("sigma_nu_plus/") + name, [&fp, plus] {
                     return std::make_unique<SigmaNuPlusOracle>(fp, plus);
                   }});
  }
  return out;
}

using Query = std::pair<Pid, Time>;

/// The times where a memo key changes: either side of stabilization and
/// either side of the first window edges k*hold, plus negative times
/// (which share window 0 with [0, hold) and reach negative windows).
inline std::vector<Time> edge_times(Time stabilize, Time hold) {
  std::vector<Time> out = {stabilize - 1, stabilize, -1, -hold, -hold - 1};
  for (Time k = 1; k <= 3; ++k) {
    out.push_back(k * hold - 1);
    out.push_back(k * hold);
  }
  return out;
}

/// The scheduler's order (sim/scheduler.cpp): rounds in which every process
/// alive at its slot queries once, in a fresh random order, one tick per
/// slot, up to `horizon`.
inline std::vector<Query> scheduler_order(const FailurePattern& fp,
                                          Time horizon, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pid> order;
  std::vector<Query> out;
  Time now = 0;
  while (now < horizon) {
    order.clear();
    for (Pid p = 0; p < fp.n(); ++p) order.push_back(p);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (Pid p : order) {
      ++now;
      if (fp.alive_at(p, now)) out.emplace_back(p, now);
    }
  }
  return out;
}

/// Random processes at random times in [-hold, horizon] or at an edge time,
/// so time goes backwards about as often as forwards and repeats windows
/// out of order.
inline std::vector<Query> random_order(Pid n, const std::vector<Time>& edges,
                                       Time hold, Time horizon, int count,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < count; ++i) {
    const auto p = static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
    const Time t =
        rng.chance(1, 3)
            ? edges[rng.below(edges.size())]
            : rng.range(-std::min<Time>(hold, horizon), horizon);
    out.emplace_back(p, t);
  }
  return out;
}

/// Every (p, t) of `base` twice in a row, then `base` once more.
inline std::vector<Query> repeated_order(const std::vector<Query>& base) {
  std::vector<Query> out;
  for (const Query& q : base) {
    out.push_back(q);
    out.push_back(q);
  }
  out.insert(out.end(), base.begin(), base.end());
  return out;
}

/// Queries one oracle of `c` in `queries` order and checks each answer
/// against a fresh oracle's first answer at the same (p, t).
inline void expect_memo_matches_stateless(const MemoCase& c,
                                          const std::vector<Query>& queries,
                                          const std::string& context) {
  const std::unique_ptr<Oracle> memoized = c.make();
  int mismatches = 0;
  for (const auto& [p, t] : queries) {
    const FdValue got = memoized->value(p, t);
    const FdValue want = c.make()->value(p, t);
    if (got != want && ++mismatches <= 3) {
      ADD_FAILURE() << c.name << " (" << context << ") at p=" << p
                    << " t=" << t << ": memoized " << got.to_string()
                    << ", stateless " << want.to_string();
    }
  }
  EXPECT_EQ(mismatches, 0) << c.name << " (" << context << ")";
}

/// All three query orders for every Sigma-family case at hold in
/// {1, 8, 10^6}.
inline void expect_sigma_family_memo_exact(const FailurePattern& fp,
                                           Time stabilize, Time horizon,
                                           int random_count,
                                           std::uint64_t seed) {
  for (const Time hold : {Time{1}, Time{8}, Time{1'000'000}}) {
    const std::vector<Time> edges = edge_times(stabilize, hold);
    std::vector<Query> edge_queries;
    for (Pid p = 0; p < fp.n(); ++p) {
      for (Time t : edges) edge_queries.emplace_back(p, t);
    }
    const std::vector<Query> in_scheduler_order =
        scheduler_order(fp, horizon, seed);
    const std::vector<Query> in_random_order =
        random_order(fp.n(), edges, hold, horizon, random_count, seed + 1);
    const std::vector<Query> in_repeated_order = repeated_order(edge_queries);
    const std::string h = "hold=" + std::to_string(hold);
    for (const MemoCase& c : sigma_family_cases(fp, stabilize, hold, seed)) {
      expect_memo_matches_stateless(c, in_scheduler_order, h + " scheduler");
      expect_memo_matches_stateless(c, in_random_order, h + " random");
      expect_memo_matches_stateless(c, in_repeated_order, h + " repeated");
    }
  }
}

}  // namespace nucon::testutil
