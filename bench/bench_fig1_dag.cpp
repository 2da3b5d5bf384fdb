// Experiment E1 (paper Fig. 1, A_DAG and the §4.1 lemmas).
//
// Measures how the DAG of failure-detector samples and its gossip cost
// grow with system size and execution length, plus an ablation over the
// gossip cadence (the paper's listing gossips every step; see
// effective_gossip_every for why a cadence is needed in a one-receive-
// per-step model). Expected shape: nodes grow linearly in steps, edges
// quadratically (each new node links to everything known), per-message
// gossip bytes linearly, and per-step cadence (ablation=1) drowns the
// buffers while >= 2n cadences keep the backlog flat.
#include "bench_util.hpp"
#include "dag/dag_builder.hpp"
#include "sim/scheduler.hpp"

namespace nucon::bench {
namespace {

struct DagStats {
  std::size_t nodes = 0;
  std::uint64_t edges = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t backlog = 0;
  double staleness = 0;  // own samples minus min known frontier entry
};

DagStats run_dag(Pid n, Pid faults, std::int64_t steps, int gossip_every,
                 std::uint64_t seed) {
  const FailurePattern fp = spread_crashes(n, faults, 60, seed);
  exp::AlgoOracles oracle(exp::Algo::kStacked, fp, 80, kAdversarial, seed);

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  const SimResult sim =
      simulate(fp, oracle.top(), make_adag(n, gossip_every), opts);

  DagStats out;
  out.messages = sim.messages_sent;
  out.bytes = sim.bytes_sent;
  out.backlog = sim.undelivered_at_end;
  int counted = 0;
  for (Pid p : fp.correct()) {
    const auto& core =
        static_cast<const AdagAutomaton*>(
            sim.automata[static_cast<std::size_t>(p)].get())
            ->core();
    out.nodes = std::max(out.nodes, core.dag().total_nodes());
    out.edges = std::max(out.edges, core.dag().total_edges());
    std::uint32_t min_known = core.k();
    for (Pid q : fp.correct()) {
      min_known = std::min(min_known, core.dag().count_of(q));
    }
    out.staleness += static_cast<double>(core.k()) - min_known;
    ++counted;
  }
  if (counted > 0) out.staleness /= counted;
  return out;
}

void experiments() {
  {
    TextTable t({"n", "faults", "steps", "dag_nodes", "dag_edges",
                 "gossip_msgs", "gossip_MB", "bytes/msg", "backlog"});
    for (Pid n : {2, 3, 4, 6, 8}) {
      for (const std::int64_t steps : {400, 1200, 2400}) {
        const Pid faults = static_cast<Pid>(n / 3);
        const DagStats s = run_dag(n, faults, steps, /*gossip_every=*/0, 1);
        t.add_row({std::to_string(n), std::to_string(faults),
                   std::to_string(steps), std::to_string(s.nodes),
                   std::to_string(s.edges), std::to_string(s.messages),
                   TextTable::fmt(static_cast<double>(s.bytes) / 1e6, 2),
                   TextTable::fmt(s.messages
                                      ? static_cast<double>(s.bytes) /
                                            static_cast<double>(s.messages)
                                      : 0.0),
                   std::to_string(s.backlog)});
      }
    }
    print_section("E1a: A_DAG growth and gossip cost (Fig. 1)", t);
  }

  {
    TextTable t({"n", "gossip_every", "backlog", "staleness", "gossip_MB"});
    const Pid n = 4;
    for (int cadence : {1, 2, 4, 8, 16, 32}) {
      const DagStats s = run_dag(n, 1, 2000, cadence, 2);
      t.add_row({std::to_string(n), std::to_string(cadence),
                 std::to_string(s.backlog), TextTable::fmt(s.staleness, 1),
                 TextTable::fmt(static_cast<double>(s.bytes) / 1e6, 2)});
    }
    print_section(
        "E1b: gossip cadence ablation (per-step gossip floods the buffer)", t);
  }
}

void BM_DagTakeSample(benchmark::State& state) {
  const Pid n = static_cast<Pid>(state.range(0));
  SampleDag dag(n);
  Pid p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dag.take_sample(p, FdValue::of_quorum(ProcessSet::single(p))));
    p = static_cast<Pid>((p + 1) % n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DagTakeSample)->Arg(4)->Arg(16)->Arg(64);

void BM_DagSerialize(benchmark::State& state) {
  SampleDag dag(8);
  for (int i = 0; i < state.range(0); ++i) {
    dag.take_sample(static_cast<Pid>(i % 8),
                    FdValue::of_quorum(ProcessSet::full(8)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dag.serialize().size()));
}
BENCHMARK(BM_DagSerialize)->Arg(64)->Arg(512)->Arg(4096);

void BM_DagDeserializeMerge(benchmark::State& state) {
  SampleDag dag(8);
  for (int i = 0; i < state.range(0); ++i) {
    dag.take_sample(static_cast<Pid>(i % 8),
                    FdValue::of_quorum(ProcessSet::full(8)));
  }
  const Bytes wire = dag.serialize();
  for (auto _ : state) {
    auto decoded = SampleDag::deserialize(wire);
    benchmark::DoNotOptimize(decoded);
    SampleDag fresh(8);
    fresh.merge_from(*decoded);
    benchmark::DoNotOptimize(fresh.total_nodes());
  }
}
BENCHMARK(BM_DagDeserializeMerge)->Arg(64)->Arg(512);

void BM_FairChain(benchmark::State& state) {
  const FailurePattern fp(4);
  exp::AlgoOracles oracle(exp::Algo::kStacked, fp, 40, kAdversarial, 3);
  SchedulerOptions opts;
  opts.seed = 3;
  opts.max_steps = state.range(0);
  const SimResult sim = simulate(fp, oracle.top(), make_adag(4), opts);
  const SampleDag& dag =
      static_cast<const AdagAutomaton*>(sim.automata[0].get())->core().dag();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.fair_chain(NodeRef{0, 1}));
  }
}
BENCHMARK(BM_FairChain)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "E1")
