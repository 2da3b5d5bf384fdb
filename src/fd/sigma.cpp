#include "fd/sigma.hpp"

#include <algorithm>
#include <stdexcept>

namespace nucon {

SigmaOracle::SigmaOracle(const FailurePattern& fp, SigmaOptions opts)
    : fp_(fp),
      opts_(opts),
      all_(ProcessSet::full(fp.n())),
      correct_(fp.correct()),
      memo_(fp.n()) {
  kernel_ = correct_.empty() ? 0 : correct_.min();
  if (opts_.strategy == SigmaStrategy::kMajority &&
      !is_majority(correct_, fp_.n())) {
    // Majority quorums can satisfy completeness only if a majority is
    // correct. A hard error, not an assert: past stabilization a release
    // build would draw a majority out of fewer correct processes and run
    // Rng::below(0).
    throw std::invalid_argument(
        "SigmaOracle: the majority strategy needs a correct majority, which " +
        fp_.to_string() + " lacks");
  }
}

FdValue SigmaOracle::draw(Pid p, Time window, bool stable) const {
  const ProcessSet& universe = stable ? correct_ : all_;
  const std::uint64_t mix = oracle_mix(opts_.seed, p, window, stable);
  switch (opts_.strategy) {
    case SigmaStrategy::kKernel:
      return FdValue::of_quorum(
          noisy_superset(ProcessSet::single(kernel_), universe, mix));
    case SigmaStrategy::kMajority: {
      const int quorum_size = fp_.n() / 2 + 1;
      Rng rng(mix);
      return FdValue::of_quorum(rng.pick_subset(universe, quorum_size));
    }
  }
  __builtin_unreachable();
}

FdValue SigmaOracle::value(Pid p, Time t) {
  const Time window = t / std::max<Time>(1, opts_.hold);
  const bool stable = t >= opts_.stabilize_at;
  return memo_.get(p, window, stable, [&] { return draw(p, window, stable); });
}

}  // namespace nucon
