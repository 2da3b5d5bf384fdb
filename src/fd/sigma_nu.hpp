// The nonuniform quorum failure detector Sigma^nu (paper §3.3).
//
// Like Sigma, but only quorums output at *correct* processes must
// intersect; faulty processes may output anything at all. The faulty-side
// freedom is exactly what separates Sigma^nu from Sigma (Theorem 7.1), so
// the oracle exposes it as a knob: benign faulty modules behave like
// correct ones, adversarial ones output quorums of faulty processes that
// miss every stabilized correct quorum — the fuel of the paper's §6.3
// contamination scenario.
#pragma once

#include "fd/failure_detector.hpp"
#include "fd/oracle_base.hpp"

namespace nucon {

enum class FaultyQuorumBehavior {
  /// Faulty modules follow the same rule as correct ones.
  kBenign,
  /// Faulty modules output subsets of the faulty processes (plus
  /// themselves), disjoint from stabilized correct quorums.
  kAdversarialDisjoint,
  /// Faulty modules output uniformly random sets.
  kNoise,
};

struct SigmaNuOptions {
  Time stabilize_at = 0;
  FaultyQuorumBehavior faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  std::uint64_t seed = 0x516A;
  /// Quorum noise is re-drawn every `hold` ticks (see SigmaOptions::hold).
  Time hold = 8;
};

class SigmaNuOracle final : public Oracle {
 public:
  SigmaNuOracle(const FailurePattern& fp, SigmaNuOptions opts);

  [[nodiscard]] FdValue value(Pid p, Time t) override;

 private:
  [[nodiscard]] FdValue draw(Pid p, Time window, bool stable) const;

  const FailurePattern& fp_;
  SigmaNuOptions opts_;
  ProcessSet all_;
  ProcessSet correct_;
  ProcessSet faulty_;
  Pid kernel_ = 0;
  WindowMemo memo_;
};

/// Sigma^nu+ (paper §6.1): Sigma^nu plus self-inclusion (every process is
/// in all its quorums) and conditional nonintersection (a quorum disjoint
/// from some correct process's quorum contains only faulty processes).
/// The same faulty-side knob applies; note kAdversarialDisjoint remains a
/// *legal* Sigma^nu+ history because those quorums are faulty-only.
struct SigmaNuPlusOptions {
  Time stabilize_at = 0;
  FaultyQuorumBehavior faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  std::uint64_t seed = 0x516A0;
  /// Quorum noise is re-drawn every `hold` ticks (see SigmaOptions::hold).
  Time hold = 8;
};

class SigmaNuPlusOracle final : public Oracle {
 public:
  SigmaNuPlusOracle(const FailurePattern& fp, SigmaNuPlusOptions opts);

  [[nodiscard]] FdValue value(Pid p, Time t) override;

 private:
  /// `faulty_only` picks the faulty-only shape around p over the benign
  /// {p, kernel} shape.
  [[nodiscard]] FdValue draw(Pid p, Time window, bool stable,
                             bool faulty_only) const;

  const FailurePattern& fp_;
  SigmaNuPlusOptions opts_;
  ProcessSet all_;
  ProcessSet correct_;
  ProcessSet faulty_;
  Pid kernel_ = 0;
  WindowMemo memo_;
};

}  // namespace nucon
