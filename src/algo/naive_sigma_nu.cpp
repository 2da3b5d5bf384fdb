#include "algo/naive_sigma_nu.hpp"

#include "algo/mr_consensus.hpp"
#include "fd/composed.hpp"
#include "fd/omega.hpp"
#include "fd/sigma_nu.hpp"

namespace nucon {
namespace {

/// One adversarial execution of `make` under the contamination family.
ConsensusRunStats run_adversarial(const ContaminationSetup& setup,
                                  const ConsensusFactory& make,
                                  bool use_sigma_nu_plus,
                                  std::uint64_t seed) {
  FailurePattern fp(setup.n);
  fp.set_crash(setup.faulty, setup.crash_at);

  OmegaOptions omega_opts;
  omega_opts.stabilize_at = setup.omega_stabilize_at;
  omega_opts.seed = seed * 2 + 1;
  OmegaOracle omega(fp, omega_opts);

  SigmaNuOptions sigma_opts;
  sigma_opts.stabilize_at = 0;  // quorums are adversarial from the start
  sigma_opts.faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  sigma_opts.seed = seed * 2 + 2;
  SigmaNuOracle sigma_nu(fp, sigma_opts);

  SigmaNuPlusOptions plus_opts;
  plus_opts.stabilize_at = 0;
  plus_opts.faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  plus_opts.seed = seed * 2 + 2;
  SigmaNuPlusOracle sigma_nu_plus(fp, plus_opts);

  ComposedOracle oracle(omega, use_sigma_nu_plus
                                   ? static_cast<Oracle&>(sigma_nu_plus)
                                   : static_cast<Oracle&>(sigma_nu));

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = setup.max_steps;
  // Mixed proposals: divergence between estimates is what contamination
  // propagates.
  return run_consensus(fp, oracle, make, mixed_proposals(setup.n), opts);
}

}  // namespace

ContaminationResult find_contamination(const ContaminationSetup& setup,
                                       int max_seeds,
                                       std::uint64_t base_seed) {
  ContaminationResult result;
  const ConsensusFactory naive = make_mr_fd_quorum(setup.n);

  for (int i = 0; i < max_seeds; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    ConsensusRunStats stats =
        run_adversarial(setup, naive, /*use_sigma_nu_plus=*/false, seed);
    ++result.runs_tried;
    if (!stats.verdict.uniform_agreement) ++result.uniform_violations;
    if (!stats.verdict.nonuniform_agreement) {
      ++result.nonuniform_violations;
      result.found = true;
      result.seed = seed;
      result.stats = std::move(stats);
      return result;
    }
  }
  return result;
}

int count_nonuniform_violations(const ContaminationSetup& setup,
                                const ConsensusFactory& make, int seeds,
                                bool use_sigma_nu_plus,
                                std::uint64_t base_seed) {
  int violations = 0;
  for (int i = 0; i < seeds; ++i) {
    const ConsensusRunStats stats =
        run_adversarial(setup, make, use_sigma_nu_plus,
                        base_seed + static_cast<std::uint64_t>(i));
    if (!stats.verdict.nonuniform_agreement) ++violations;
  }
  return violations;
}

}  // namespace nucon
