// Experiments E10, E16, E17 plus substrate microbenchmarks.
//
// E10 validates Lemma 2.2 at scale (merge random disjoint partial runs and
// replay); E16 is the bounded model-checking dichotomy at n=2; E17 measures
// the engine on the n=3 reference space, run to exhaustion at each depth:
// unique states/s, peak RSS, and the dedup, POR and interning anatomy. The
// microbenchmarks cover the primitives everything else is built on
// (ProcessSet ops, varint codec, replay).
//
// NUCON_MODEL_QUICK=1 shrinks E17 to the depth-8 slice of the same space
// for CI (scripts/bench-quick.sh); the full run adds depths 10 and 12.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "algo/mr_consensus.hpp"
#include "check/model_checker.hpp"
#include "fd/scripted.hpp"
#include "sim/merge.hpp"

namespace nucon::bench {
namespace {

bool quick_grid() {
  const char* v = std::getenv("NUCON_MODEL_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// The n=3 reference history (the §6.3 contamination shape): processes 0
/// and 1 share quorum {0,1} under leader 0, process 2 is partitioned
/// behind {2} with itself as leader.
FdValue split_quorum_fd(Pid p, int /*own_step*/) {
  FdValue v =
      FdValue::of_quorum(p < 2 ? ProcessSet{0, 1} : ProcessSet::single(2));
  v.set_leader(p < 2 ? 0 : 2);
  return v;
}

McOptions reference_config(int depth) {
  McOptions o;
  o.n = 3;
  o.make = make_mr_fd_quorum(3);
  o.proposals = {0, 0, 1};
  o.fd = split_quorum_fd;
  o.max_depth = depth;
  o.max_states = 100'000'000;  // exhaustion, not budget, ends these runs
  return o;
}

template <typename F>
std::pair<McResult, double> timed(F&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  McResult r = run();
  const auto t1 = std::chrono::steady_clock::now();
  return {std::move(r), std::chrono::duration<double>(t1 - t0).count()};
}

/// The process's peak resident set so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// E17: the engine exhausting the n=3 reference space at growing depths.
/// Peak RSS is the process's high-water mark after the row; the rows run
/// in ascending depth and each search frees what it allocated, so a row's
/// figure is its own search's peak (or an earlier, smaller row's).
void engine_measurement() {
  const std::vector<int> depths =
      quick_grid() ? std::vector<int>{8} : std::vector<int>{8, 10, 12};
  TextTable t({"depth", "unique_states", "arrivals", "peak", "seconds",
               "states_per_sec", "peak_rss_mb"});
  McResult eng;
  double eng_s = 0;
  for (const int depth : depths) {
    std::tie(eng, eng_s) =
        timed([&] { return model_check_consensus(reference_config(depth)); });
    t.add_row({std::to_string(depth), std::to_string(eng.states_explored),
               std::to_string(eng.states_explored + eng.states_deduped),
               std::to_string(eng.peak_depth), TextTable::fmt(eng_s, 2),
               TextTable::fmt(
                   static_cast<double>(eng.states_explored) / eng_s, 0),
               TextTable::fmt(peak_rss_mb(), 0)});
  }
  print_section("E17: the engine exhausting the reference space", t);

  // Where the time goes at the deepest row: dedup hits, POR pruning,
  // reconciliation, and how few distinct components the configurations
  // are built from.
  const auto eng_arrivals = eng.states_explored + eng.states_deduped;
  const double eng_rate = static_cast<double>(eng.states_explored) / eng_s;
  TextTable d({"metric", "value"});
  d.add_row({"exhausted", eng.exhausted ? "yes" : "NO"});
  d.add_row({"violation found", eng.violation_found ? "YES" : "no"});
  d.add_row({"dedup ratio (engine dupes/arrival)",
             TextTable::fmt(static_cast<double>(eng.states_deduped) /
                                static_cast<double>(eng_arrivals),
                            3)});
  d.add_row({"por pruned transitions", std::to_string(eng.por_skipped)});
  d.add_row(
      {"por prune ratio (pruned/(pruned+arrivals))",
       TextTable::fmt(static_cast<double>(eng.por_skipped) /
                          static_cast<double>(eng.por_skipped + eng_arrivals),
                      3)});
  d.add_row({"reexpanded (por/caching reconciliation)",
             std::to_string(eng.states_reexpanded)});
  d.add_row({"sections interned", std::to_string(eng.sections_interned)});
  d.add_row({"payloads interned", std::to_string(eng.payloads_interned)});
  d.add_row({"hash collisions (equal keys, kept apart)",
             std::to_string(eng.hash_collisions)});
  print_section("E17: speedup anatomy", d);

  report().timings["model:engine:seconds"] = eng_s;
  report().timings["model:engine:states_per_sec"] = eng_rate;

  // Determinism contract on a violating slice of the same space: verdict,
  // witness, and state counts bit-identical for 1 vs 8 threads and for
  // POR on vs off (deduped/por counters differ under the reduction by
  // design, so those two compare field-wise).
  McOptions v = reference_config(quick_grid() ? 13 : 14);
  v.max_states = quick_grid() ? 200'000 : 4'000'000;
  const McResult serial = model_check_consensus(v);
  v.threads = 8;
  const McResult par = model_check_consensus(v);
  v.threads = 1;
  v.use_por = false;
  const McResult nopor = model_check_consensus(v);
  TextTable c({"check", "result"});
  c.add_row({"1 vs 8 threads: McResult ==", serial == par ? "yes" : "NO"});
  c.add_row({"por on/off: verdict+witness ==",
             serial.violation_found == nopor.violation_found &&
                     serial.violation == nopor.violation &&
                     serial.witness == nopor.witness
                 ? "yes"
                 : "NO"});
  c.add_row({"por on/off: states_explored ==",
             serial.states_explored == nopor.states_explored ? "yes" : "NO"});
  print_section("E17: determinism cross-checks", c);
}

void experiments() {
  // E10: Lemma 2.2 sweep — merge disjoint halves of a 6-process system
  // under a fixed partition oracle, replay, and compare states.
  constexpr Pid kN = 6;
  ProcessSet side_a, side_b;
  for (Pid p = 0; p < kN / 2; ++p) side_a.insert(p);
  for (Pid p = kN / 2; p < kN; ++p) side_b.insert(p);

  const AutomatonFactory factory = [](Pid p) -> std::unique_ptr<Automaton> {
    return std::make_unique<MrConsensus>(
        p, p < kN / 2 ? 0 : 1, MrOptions{kN, MrQuorumMode::kFdQuorum});
  };

  int merged_ok = 0;
  int states_match = 0;
  const int trials = 50;
  Accumulator merged_steps;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t seed = 1 + static_cast<std::uint64_t>(i);
    const FailurePattern fp(kN);
    ScriptedOracle oracle([side_a, side_b](Pid p, Time) {
      const ProcessSet side = side_a.contains(p) ? side_a : side_b;
      FdValue v = FdValue::of_quorum(side);
      v.set_leader(side.min());
      return v;
    });

    SchedulerOptions opts;
    opts.seed = seed;
    opts.max_steps = 300;
    opts.restrict_to = side_a;
    SimResult run_a = simulate(fp, oracle, factory, opts);
    opts.restrict_to = side_b;
    opts.seed = seed + 1000;
    SimResult run_b = simulate(fp, oracle, factory, opts);

    const auto merged = merge_runs(run_a.run, run_b.run);
    if (!merged) continue;
    const ReplayOutcome outcome = replay(*merged, kN, factory);
    if (!outcome.ok || check_run_structure(*merged)) continue;
    ++merged_ok;
    merged_steps.add(static_cast<double>(merged->steps.size()));

    bool all_match = true;
    for (Pid p = 0; p < kN; ++p) {
      const auto& original = side_a.contains(p) ? run_a : run_b;
      all_match = all_match &&
                  outcome.automata[static_cast<std::size_t>(p)]->snapshot() ==
                      original.automata[static_cast<std::size_t>(p)]->snapshot();
    }
    if (all_match) ++states_match;
  }

  TextTable t({"trials", "merged_valid", "states_match", "mean_steps"});
  t.add_row({std::to_string(trials), std::to_string(merged_ok),
             std::to_string(states_match),
             TextTable::fmt(merged_steps.mean(), 0)});
  print_section("E10: Lemma 2.2 merge-and-replay sweep", t);

  // E16: exhaustive schedule exploration at n=2. The naive Sigma^nu
  // algorithm's agreement violation is FOUND; MR-Sigma is certified safe
  // over the full bounded space; state counts show the growth the dedup
  // tames.
  {
    TextTable mc({"system", "history", "depth", "states", "deduped",
                  "outcome"});
    const auto partition_fd = [](Pid p, int) {
      FdValue v = FdValue::of_quorum(ProcessSet::single(p));
      v.set_leader(p);
      return v;
    };
    const auto sigma_fd = [](Pid p, int) {
      FdValue v = FdValue::of_quorum(ProcessSet{0, 1});
      v.set_leader(p);
      return v;
    };

    {
      McOptions o;
      o.n = 2;
      o.make = make_mr_fd_quorum(2);
      o.proposals = {0, 1};
      o.fd = partition_fd;
      o.max_depth = 16;
      o.max_states = 2'000'000;
      const McResult r = model_check_consensus(o);
      mc.add_row({"naive MR+Sigma^nu", "partition", "16",
                  std::to_string(r.states_explored),
                  std::to_string(r.states_deduped),
                  r.violation_found
                      ? "VIOLATION in " + std::to_string(r.witness.size()) +
                            " steps (expected)"
                      : "none (unexpected)"});
    }
    for (int depth : {10, 12, 14}) {
      McOptions o;
      o.n = 2;
      o.make = make_mr_fd_quorum(2);
      o.proposals = {0, 1};
      o.fd = sigma_fd;
      o.max_depth = depth;
      o.max_states = 8'000'000;
      const McResult r = model_check_consensus(o);
      mc.add_row({"MR+Sigma", "intersecting", std::to_string(depth),
                  std::to_string(r.states_explored),
                  std::to_string(r.states_deduped),
                  r.violation_found ? "VIOLATION (unexpected)"
                                    : (r.exhausted ? "safe (exhaustive)"
                                                   : "safe (budget)")});
    }
    print_section(
        "E16: bounded model checking — the §6.3 violation found by "
        "exhaustive search",
        mc);
  }

  engine_measurement();
}

void BM_ProcessSetIntersect(benchmark::State& state) {
  Rng rng(1);
  std::vector<ProcessSet> sets;
  for (int i = 0; i < 256; ++i) {
    sets.push_back(rng.pick_subset(ProcessSet::full(64), 8));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets[i % 256].intersects(sets[(i + 1) % 256]));
    ++i;
  }
}
BENCHMARK(BM_ProcessSetIntersect);

void BM_VarintRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    ByteWriter w;
    for (std::uint64_t v = 1; v < (1u << 21); v <<= 3) w.uvarint(v);
    const Bytes buf = w.take();
    ByteReader r(buf);
    while (!r.done()) benchmark::DoNotOptimize(r.uvarint());
  }
}
BENCHMARK(BM_VarintRoundTrip);

/// A do-nothing automaton: measures the harness overhead floor.
class NullAutomaton final : public Automaton {
 public:
  void step(const Incoming*, const FdValue&, std::vector<Outgoing>&) override {}
};

void BM_SchedulerThroughput(benchmark::State& state) {
  const Pid n = static_cast<Pid>(state.range(0));
  std::uint64_t seed = 1;
  const AutomatonFactory factory = [](Pid) {
    return std::make_unique<NullAutomaton>();
  };
  for (auto _ : state) {
    const FailurePattern fp(n);
    ScriptedOracle oracle([](Pid, Time) { return FdValue{}; });
    SchedulerOptions opts;
    opts.seed = seed++;
    opts.max_steps = 10'000;
    benchmark::DoNotOptimize(simulate(fp, oracle, factory, opts));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerThroughput)->Arg(4)->Arg(16)->Arg(64);

void BM_Replay(benchmark::State& state) {
  const Pid n = 4;
  const FailurePattern fp(n);
  exp::AlgoOracles oracle(exp::Algo::kMrMajority, fp, 0, kAdversarial, 2);
  const ConsensusFactory make = make_mr_majority(n);
  const AutomatonFactory generic = [&make](Pid p) {
    return make(p, p % 2);
  };
  SchedulerOptions opts;
  opts.seed = 3;
  opts.max_steps = 5'000;
  const SimResult sim = simulate(fp, oracle.top(), generic, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay(sim.run, n, generic));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sim.run.steps.size()));
}
BENCHMARK(BM_Replay);

}  // namespace
}  // namespace nucon::bench

NUCON_BENCH_MAIN(nucon::bench::experiments, "model")
