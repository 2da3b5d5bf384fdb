#include "core/partition_argument.hpp"

#include <cassert>

#include "core/sigma_from_majority.hpp"
#include "fd/scripted.hpp"

namespace nucon {
namespace {

/// The quorum a candidate automaton currently emits, if it emits one.
std::optional<ProcessSet> emitted_quorum(const Automaton& a) {
  const auto* fd = dynamic_cast<const EmulatedFd*>(&a);
  if (fd == nullptr) return std::nullopt;
  const FdValue v = fd->emulated_output();
  if (!v.has_quorum()) return std::nullopt;
  return v.quorum();
}

/// Runs the candidate on one side of the partition (the other side crashed
/// at time 0) until some member outputs a quorum inside its own side.
struct SideRun {
  bool completed = false;  // a member emitted a quorum inside `side`
  Pid witness = -1;
  ProcessSet quorum;
  Time when = 0;
  Run run;

  explicit SideRun(FailurePattern fp) : run(std::move(fp)) {}
};

SideRun run_side(Pid n, ProcessSet side, ProcessSet other,
                 const AutomatonFactory& candidate, Oracle& oracle,
                 std::int64_t max_steps, std::uint64_t seed) {
  FailurePattern fp(n);
  for (Pid p : other) fp.set_crash(p, 0);

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = max_steps;
  opts.restrict_to = side;
  opts.stop_when = [side](const std::vector<std::unique_ptr<Automaton>>& all) {
    for (Pid p : side) {
      const auto q = emitted_quorum(*all[static_cast<std::size_t>(p)]);
      if (q && !q->empty() && q->is_subset_of(side)) return true;
    }
    return false;
  };

  SimResult sim = simulate(fp, oracle, candidate, opts);

  SideRun result(fp);
  result.run = std::move(sim.run);
  result.when = sim.end_time;
  for (Pid p : side) {
    const auto q = emitted_quorum(*sim.automata[static_cast<std::size_t>(p)]);
    if (q && !q->empty() && q->is_subset_of(side)) {
      result.completed = true;
      result.witness = p;
      result.quorum = *q;
      break;
    }
  }
  return result;
}

}  // namespace

PartitionDemoResult run_partition_argument(Pid n,
                                           const AutomatonFactory& candidate,
                                           std::int64_t max_steps,
                                           std::uint64_t seed) {
  assert(n >= 2);
  PartitionDemoResult result;

  // Partition Pi into halves; with t = max(|A|, |B|) >= n/2 both "all of A
  // crashes" and "all of B crashes" are in E_t.
  ProcessSet side_a, side_b;
  for (Pid p = 0; p < n; ++p) {
    (p < (n + 1) / 2 ? side_a : side_b).insert(p);
  }
  result.side_a = side_a;
  result.side_b = side_b;

  // The fixed, legal (Omega, Sigma^nu) history: each side trusts itself.
  ScriptedOracle oracle([side_a, side_b](Pid p, Time) {
    const ProcessSet side = side_a.contains(p) ? side_a : side_b;
    FdValue v = FdValue::of_quorum(side);
    v.set_leader(side.min());
    return v;
  });

  // Run R (A-side) and run R_B (B-side).
  const SideRun run_a =
      run_side(n, side_a, side_b, candidate, oracle, max_steps, seed);
  if (!run_a.completed) {
    result.outcome = PartitionOutcome::kCompletenessFailed;
    result.detail = "A-side never output a quorum within A (completeness of "
                    "Sigma fails when B crashes)";
    return result;
  }
  result.tau = run_a.when;
  result.witness_a = run_a.witness;
  result.quorum_a = run_a.quorum;

  const SideRun run_b =
      run_side(n, side_b, side_a, candidate, oracle, max_steps, seed + 1);
  if (!run_b.completed) {
    result.outcome = PartitionOutcome::kCompletenessFailed;
    result.detail = "B-side never output a quorum within B (completeness of "
                    "Sigma fails when A crashes)";
    return result;
  }
  result.witness_b = run_b.witness;
  result.quorum_b = run_b.quorum;

  // Build run R': failure pattern "A crashes at tau+1", steps of R (all at
  // times <= tau) merged with the steps of R_B. Both step sequences are
  // legal under this pattern and have disjoint participants, so Lemma 2.2
  // applies; we verify it by replaying the merged schedule.
  FailurePattern fp_merged(n);
  for (Pid p : side_a) fp_merged.set_crash(p, result.tau + 1);

  Run part_a(fp_merged);
  part_a.steps = run_a.run.steps;
  Run part_b(fp_merged);
  part_b.steps = run_b.run.steps;

  std::string merge_error;
  const auto merged = merge_runs(part_a, part_b, &merge_error);
  if (merged) {
    const ReplayOutcome outcome = replay(*merged, n, candidate);
    result.merged_run_valid =
        outcome.ok && !check_run_structure(*merged).has_value();
    if (result.merged_run_valid) {
      // Lemma 2.2(b): each side's witness holds the same output in the
      // merged run as in its original run.
      const auto qa = emitted_quorum(
          *outcome.automata[static_cast<std::size_t>(result.witness_a)]);
      const auto qb = emitted_quorum(
          *outcome.automata[static_cast<std::size_t>(result.witness_b)]);
      if (qa) result.quorum_a = *qa;
      if (qb) result.quorum_b = *qb;
    }
  } else {
    result.detail = "merge failed: " + merge_error;
  }

  if (!result.quorum_a.intersects(result.quorum_b)) {
    result.outcome = PartitionOutcome::kIntersectionViolated;
    result.detail = "disjoint quorums " + result.quorum_a.to_string() +
                    " and " + result.quorum_b.to_string() +
                    " in the merged run";
  } else {
    result.outcome = PartitionOutcome::kSurvived;
    result.detail = "quorums intersected within the step budget";
  }
  return result;
}

// --- Candidates --------------------------------------------------------------

namespace {

/// Emits exactly the quorum component currently read from the detector.
class IdentityCandidate final : public Automaton, public EmulatedFd {
 public:
  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    (void)in;
    (void)out;
    if (d.has_quorum()) output_ = d.quorum();
  }

  [[nodiscard]] FdValue emulated_output() const override {
    return FdValue::of_quorum(output_);
  }

 private:
  ProcessSet output_;
};

/// Gossips quorums and outputs the union of everything it has heard plus
/// its own readings.
class GossipUnionCandidate final : public Automaton, public EmulatedFd {
 public:
  explicit GossipUnionCandidate(Pid n) : n_(n) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    if (in != nullptr) {
      ByteReader r(in->payload);
      if (const auto q = r.process_set(n_); q && r.done()) heard_ |= *q;
    }
    if (d.has_quorum()) {
      heard_ |= d.quorum();
      ByteWriter w;
      w.process_set(d.quorum(), n_);
      broadcast(n_, w.take(), out);
    }
    if (!heard_.empty()) output_ = heard_;
  }

  [[nodiscard]] FdValue emulated_output() const override {
    return FdValue::of_quorum(output_);
  }

 private:
  Pid n_;
  ProcessSet heard_;
  ProcessSet output_ = ProcessSet{};
};

}  // namespace

AutomatonFactory make_identity_candidate() {
  return [](Pid) { return std::make_unique<IdentityCandidate>(); };
}

AutomatonFactory make_gossip_union_candidate(Pid n) {
  return [n](Pid) { return std::make_unique<GossipUnionCandidate>(n); };
}

AutomatonFactory make_wait_for_n_minus_t_candidate(Pid n) {
  const Pid t = static_cast<Pid>((n + 1) / 2);  // t >= n/2: no majority left
  return make_sigma_from_majority(n, t);
}

}  // namespace nucon
