// Experiment E2/E3 (paper Fig. 2, Theorems 5.4 and 5.8).
//
// Runs the transformation T_{D -> Sigma^nu} with two (D, A) pairs:
//   E2: D = (Omega, Sigma^nu+) adversarial, A = A_nuc   -> output in Sigma^nu
//   E3: D = (Omega, Sigma),               A = MR-Sigma  -> output in Sigma
// and reports the emulation's liveness (steps to first emitted quorum,
// number of emissions) and the emitted quorum sizes, plus the mechanical
// class-membership verdicts. Expected shape: every correct process keeps
// emitting; verdicts always pass; emission latency grows with n (each
// emission needs a deciding simulated schedule, i.e. several simulated
// consensus rounds worth of fresh samples).
#include "bench_util.hpp"
#include "core/anuc.hpp"
#include "core/extract_sigma_nu.hpp"
#include "fd/history.hpp"

namespace nucon::bench {
namespace {

struct ExtractRow {
  double first_emit_step = 0;  // mean over correct processes (steps of p)
  double emissions = 0;        // mean over correct processes
  double quorum_size = 0;      // mean emitted quorum size
  std::int64_t simulations = 0;
  bool check_ok = false;
};

ExtractRow run_extract(Pid n, Pid faults, bool uniform_pair,
                       std::uint64_t seed, std::int64_t steps) {
  const FailurePattern fp = spread_crashes(n, faults, 40, seed);
  const exp::Algo algo = uniform_pair ? exp::Algo::kMrSigma : exp::Algo::kAnuc;
  exp::AlgoOracles oracle(algo, fp, 60, kAdversarial, seed);

  ExtractOptions eo;
  eo.algorithm = exp::consensus_factory_of(algo, n, seed);
  eo.n = n;
  eo.check_every = 4;
  eo.max_chain = 800;

  RecordedHistory emulated;
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  opts = with_emulation_recording(std::move(opts), emulated);
  const SimResult sim = simulate(fp, oracle.top(), make_extract_sigma_nu(eo), opts);

  ExtractRow row;
  Accumulator first_emit;
  Accumulator emissions;
  Accumulator qsize;
  for (Pid p : fp.correct()) {
    const auto* x = static_cast<const ExtractSigmaNu*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    emissions.add(static_cast<double>(x->outputs_produced()));
    row.simulations += x->simulations_run();
    // First own step at which the output departs from the initial Pi (an
    // emission may legitimately re-emit Pi, so this is a lower bound), and
    // the size of the final emitted quorum.
    std::int64_t own_step = 0;
    std::int64_t first = 0;
    const auto samples = emulated.of(p);
    for (const Sample& s : samples) {
      ++own_step;
      if (first == 0 && s.value.quorum() != ProcessSet::full(n)) {
        first = own_step;
      }
    }
    if (!samples.empty()) qsize.add(samples.back().value.quorum().size());
    if (first > 0) first_emit.add(static_cast<double>(first));
  }
  row.first_emit_step = first_emit.mean();
  row.emissions = emissions.mean();
  row.quorum_size = qsize.mean();
  row.check_ok = uniform_pair ? check_sigma(emulated, fp).ok
                              : check_sigma_nu(emulated, fp).ok;
  return row;
}

void experiments() {
  {
    TextTable t({"n", "faults", "first_emit(own steps)", "emits/proc",
                 "final_quorum", "sims", "sigma_nu_ok"});
    for (Pid n : {2, 3, 4}) {
      for (Pid faults = 0; faults < n; ++faults) {
        const ExtractRow r = run_extract(n, faults, false, 3, 2200);
        t.add_row({std::to_string(n), std::to_string(faults),
                   TextTable::fmt(r.first_emit_step, 1),
                   TextTable::fmt(r.emissions, 1),
                   TextTable::fmt(r.quorum_size, 2),
                   std::to_string(r.simulations), r.check_ok ? "yes" : "NO"});
      }
    }
    print_section(
        "E2: extract Sigma^nu from D=(Omega,Sigma^nu+), A=A_nuc (Thm 5.4)", t);
  }

  {
    TextTable t({"n", "faults", "first_emit(own steps)", "emits/proc",
                 "final_quorum", "sims", "sigma_ok"});
    for (Pid n : {2, 3, 4}) {
      for (Pid faults = 0; faults < n; ++faults) {
        const ExtractRow r = run_extract(n, faults, true, 5, 2200);
        t.add_row({std::to_string(n), std::to_string(faults),
                   TextTable::fmt(r.first_emit_step, 1),
                   TextTable::fmt(r.emissions, 1),
                   TextTable::fmt(r.quorum_size, 2),
                   std::to_string(r.simulations), r.check_ok ? "yes" : "NO"});
      }
    }
    print_section(
        "E3: same transformation with uniform A (MR-Sigma) emits Sigma "
        "(Thm 5.8)",
        t);
  }
}

void BM_SimulateChain(benchmark::State& state) {
  // Cost of one Sch(G|u, I) simulation, the inner loop of Fig. 2.
  const Pid n = static_cast<Pid>(state.range(0));
  const FailurePattern fp(n);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 0, kAdversarial, 7);
  SchedulerOptions opts;
  opts.seed = 7;
  opts.max_steps = 1600;
  const SimResult sim = simulate(fp, oracle.top(), make_adag(n), opts);
  const SampleDag& dag =
      static_cast<const AdagAutomaton*>(sim.automata[0].get())->core().dag();
  const auto chain = dag.fair_chain(NodeRef{0, 1});
  const std::vector<Value> zeros(static_cast<std::size_t>(n), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_chain(dag, chain, make_anuc(n), zeros, 0));
  }
  state.counters["chain_len"] = static_cast<double>(chain.size());
}
BENCHMARK(BM_SimulateChain)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "E2")
