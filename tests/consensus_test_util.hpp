// Shared helpers for the consensus-algorithm test sweeps.
#pragma once

#include <gtest/gtest.h>

#include "algo/harness.hpp"
#include "exp/sweep.hpp"

namespace nucon::testutil {

/// The faulty-quorum mode of the sweeps' stacks. The consensus tests build
/// their stacks with exp::AlgoOracles, the builder the sweep engine, the
/// fuzzer and perfbench use too.
inline constexpr FaultyQuorumBehavior kAdversarial =
    FaultyQuorumBehavior::kAdversarialDisjoint;

struct SweepParam {
  Pid n;
  Pid faults;
  std::uint64_t seed;
};

inline std::string sweep_name(const testing::TestParamInfo<SweepParam>& info) {
  return "n" + std::to_string(info.param.n) + "_f" +
         std::to_string(info.param.faults) + "_s" +
         std::to_string(info.param.seed);
}

inline FailurePattern sweep_pattern(const SweepParam& param, Time latest_crash) {
  Rng rng(param.seed * 7919 + static_cast<std::uint64_t>(param.n) * 131 +
          static_cast<std::uint64_t>(param.faults));
  return Environment{param.n, static_cast<Pid>(param.n - 1)}.sample(
      rng, param.faults, latest_crash);
}

}  // namespace nucon::testutil
