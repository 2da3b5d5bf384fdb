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

/// An undecided saved state as if it had decided v: its has_decided byte at
/// `at` (0 there) rewritten to `flag`, and v encoded right after it, where
/// every consensus codec keeps the decided value. With flag 1 this is a
/// canonical decided state; with flag 2 the parse does not shift, so only a
/// decoder that accepts the byte as a 0/1 flag and nothing else refuses it.
inline Bytes with_decision(const Bytes& saved, std::size_t at,
                           std::uint8_t flag, Value v) {
  EXPECT_EQ(saved.at(at), 0x00);
  ByteWriter w;
  w.raw(ByteView(saved).first(at));
  w.u8(flag);
  w.svarint(v);
  w.raw(ByteView(saved).subspan(at + 1));
  return w.take();
}

inline FailurePattern sweep_pattern(const SweepParam& param, Time latest_crash) {
  Rng rng(param.seed * 7919 + static_cast<std::uint64_t>(param.n) * 131 +
          static_cast<std::uint64_t>(param.faults));
  return Environment{param.n, static_cast<Pid>(param.n - 1)}.sample(
      rng, param.faults, latest_crash);
}

}  // namespace nucon::testutil
