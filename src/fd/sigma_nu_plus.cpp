#include "fd/sigma_nu.hpp"
#include <algorithm>

namespace nucon {

SigmaNuPlusOracle::SigmaNuPlusOracle(const FailurePattern& fp,
                                     SigmaNuPlusOptions opts)
    : fp_(fp),
      opts_(opts),
      all_(ProcessSet::full(fp.n())),
      correct_(fp.correct()),
      faulty_(fp.faulty()),
      memo_(fp.n()) {
  kernel_ = correct_.empty() ? 0 : correct_.min();
}

FdValue SigmaNuPlusOracle::draw(Pid p, Time window, bool stable,
                                bool faulty_only) const {
  const std::uint64_t mix = oracle_mix(opts_.seed, p, window, stable);
  if (faulty_only) {
    // Faulty-only quorum around p: legal under conditional
    // nonintersection precisely because it contains only faulty
    // processes. This is the history of the paper's §6.3 scenario.
    return FdValue::of_quorum(
        noisy_superset(ProcessSet::single(p), faulty_, mix));
  }
  // Correct modules (and benign faulty ones): {p, kernel} plus noise.
  // Self-inclusion holds by construction; every such quorum contains the
  // kernel, so it intersects every other such quorum, which discharges
  // both intersection properties.
  const ProcessSet& universe = stable ? correct_ : all_;
  return FdValue::of_quorum(noisy_superset(
      ProcessSet::single(p) | ProcessSet::single(kernel_),
      universe | ProcessSet::single(p), mix));
}

FdValue SigmaNuPlusOracle::value(Pid p, Time t) {
  const Time window = t / std::max<Time>(1, opts_.hold);
  const bool stable = t >= opts_.stabilize_at;
  bool faulty_only = false;
  if (!fp_.is_correct(p)) {
    switch (opts_.faulty) {
      case FaultyQuorumBehavior::kBenign:
        break;
      case FaultyQuorumBehavior::kAdversarialDisjoint:
        faulty_only = true;
        break;
      case FaultyQuorumBehavior::kNoise:
        // Randomly alternate between the two legal shapes. The coin flips
        // every tick, so this branch is the one draw the memo skips.
        return draw(p, window, stable,
                    (oracle_mix(opts_.seed, p, t, 1) & 1) != 0);
    }
  }
  return memo_.get(p, window, stable,
                   [&] { return draw(p, window, stable, faulty_only); });
}

}  // namespace nucon
