// nucon_explore: run any consensus algorithm in the library under a chosen
// environment and oracle family, and inspect the outcome. Runs execute on
// the parallel sweep engine (src/exp/); results print in seed order and are
// identical for any --threads value.
//
//   nucon_explore --algo anuc --n 5 --faults 2 --seed 7
//   nucon_explore --algo naive --faulty-mode adversarial --seeds 50 --threads 4
//   nucon_explore --algo from-scratch --n 7 --print-steps 40
//   nucon_explore --algo naive --seed 11 --trace run.trace.jsonl
//   nucon_explore --replay 'algo=anuc n=5 faults=2 stab=120 crash=0 mode=adversarial steps=200000 seed=7'
//
// Flags:
//   --algo X         anuc | stacked | mr-majority | mr-sigma | naive |
//                    ct | ben-or | from-scratch        (default anuc)
//   --n N            system size                        (default 5)
//   --faults F       number of crashes                  (default 1)
//   --seed S         first scheduler/oracle seed        (default 1)
//   --seeds K        run K consecutive seeds, K <= 1000000 (default 1)
//   --threads T      worker threads for the sweep, T <= 256 (default 1)
//   --stabilize T    oracle stabilization time          (default 120)
//   --crash-at T     pin all crashes at time T (0 = spread randomly)
//   --max-steps M    step budget per run                (default 200000)
//   --faulty-mode X  benign | noise | adversarial       (default adversarial)
//   --fd X           generated | implemented            (default generated)
//                    implemented hosts heartbeat Omega/<>S modules beside
//                    the algorithm under the timing-aware scheduler instead
//                    of reading a pattern-generated oracle; not available
//                    for ben-or / from-scratch
//   --print-steps N  print the first/last N steps of the run
//   --trace FILE     write a structured JSONL trace of the run to FILE
//                    (multi-seed runs write FILE.seed<k>); inspect with
//                    tools/trace_dump
//   --replay 'A'     serially re-execute one replay artifact and exit
//
// Numbers must be whole base-10 tokens in range ("5x", "-1" and overflow
// are refused); a bad flag or value prints usage and exits 2.
#include <cstdio>
#include <string>

#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"
#include "sim/trace.hpp"
#include "util/parse_number.hpp"

using namespace nucon;

namespace {

/// The most consecutive seeds one invocation runs (points are built up
/// front, one per seed).
constexpr int kMaxSeeds = 1'000'000;

struct Cli {
  std::string algo = "anuc";
  Pid n = 5;
  Pid faults = 1;
  std::uint64_t seed = 1;
  int seeds = 1;
  int threads = 1;
  Time stabilize = 120;
  Time crash_at = 0;
  std::int64_t max_steps = 200'000;
  std::string faulty_mode = "adversarial";
  std::string fd = "generated";
  std::size_t print_steps = 0;
  std::string trace_file;
  std::string replay;
};

std::optional<FaultyQuorumBehavior> parse_mode(const std::string& mode) {
  if (mode == "benign") return FaultyQuorumBehavior::kBenign;
  if (mode == "noise") return FaultyQuorumBehavior::kNoise;
  if (mode == "adversarial") return FaultyQuorumBehavior::kAdversarialDisjoint;
  return std::nullopt;
}

std::optional<exp::FdSource> parse_fd(const std::string& fd) {
  if (fd == "generated") return exp::FdSource::kGenerated;
  if (fd == "implemented") return exp::FdSource::kImplemented;
  return std::nullopt;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--algo anuc|stacked|mr-majority|mr-sigma|naive|ct|"
               "ben-or|from-scratch]\n"
               "  [--n N] [--faults F] [--seed S] [--seeds K] [--threads T] "
               "[--stabilize T] [--crash-at T]\n"
               "  [--max-steps M] [--faulty-mode benign|noise|adversarial] "
               "[--fd generated|implemented]\n"
               "  [--print-steps N] [--trace FILE]\n"
               "  [--replay 'ARTIFACT']\n",
               argv0);
  return 2;
}

const char* expect_text(exp::Algo algo) {
  if (algo == exp::Algo::kNaive) {
    return "nonuniform (NOT guaranteed: the broken §6.3 substitution)";
  }
  return exp::expectation(algo) == exp::Expect::kNonuniform ? "nonuniform"
                                                            : "uniform";
}

void print_point(const exp::SweepPoint& pt, const ConsensusRunStats& stats,
                 std::size_t print_steps) {
  const FailurePattern fp = exp::failure_pattern_of(pt);
  const std::vector<Value> proposals = exp::proposals_of(pt);

  std::printf("[seed %llu] %s, %s, expect %s consensus\n",
              (unsigned long long)pt.seed, exp::algo_name(pt.algo),
              fp.to_string().c_str(), expect_text(pt.algo));
  for (Pid p = 0; p < pt.n; ++p) {
    const auto& d = stats.decisions[static_cast<std::size_t>(p)];
    std::printf("  p%d (%s) proposed %lld -> %s\n", p,
                fp.is_correct(p) ? "correct" : "faulty ",
                (long long)proposals[static_cast<std::size_t>(p)],
                d ? std::to_string(*d).c_str() : "undecided");
  }
  const ConsensusVerdict& verdict = stats.verdict;
  std::printf(
      "  steps=%zu msgs=%zu bytes=%zu | termination=%d validity=%d "
      "agreement(nonuniform=%d uniform=%d)%s%s\n",
      stats.steps, stats.messages_sent, stats.bytes_sent, verdict.termination,
      verdict.validity, verdict.nonuniform_agreement, verdict.uniform_agreement,
      verdict.detail.empty() ? "" : " | ", verdict.detail.c_str());

  if (print_steps > 0) {
    // Deterministic re-execution for the recorded run: the sweep summary
    // discards it, and any point replays bit-for-bit anyway.
    const SimResult sim = exp::simulate_point(pt);
    TraceOptions to;
    to.max_steps = print_steps;
    std::printf("%s", render_trace(sim.run, to).c_str());
  }
}

/// Re-executes `pt` with a TraceRecorder attached (bit-identical to the
/// sweep run by construction) and writes the JSONL document to `path`.
bool write_trace(const exp::SweepPoint& pt, const std::string& path) {
  const exp::TracedRun traced = exp::trace_point(pt);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "cannot write trace file: %s\n", path.c_str());
    return false;
  }
  std::fwrite(traced.jsonl.data(), 1, traced.jsonl.size(), f);
  std::fclose(f);
  std::printf("  trace written: %s (inspect with trace_dump)\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for flag: %s\n", flag.c_str());
      return usage(argv[0]);
    }
    bool ok = true;
    if (flag == "--algo") {
      cli.algo = value;
    } else if (flag == "--n") {
      ok = util::parse_number(value, cli.n, Pid{2}, kMaxProcesses);
    } else if (flag == "--faults") {
      ok = util::parse_number(value, cli.faults, Pid{0}, kMaxProcesses - 1);
    } else if (flag == "--seed") {
      ok = util::parse_number(value, cli.seed, std::uint64_t{0});
    } else if (flag == "--seeds") {
      ok = util::parse_number(value, cli.seeds, 1, kMaxSeeds);
    } else if (flag == "--threads") {
      ok = util::parse_number(value, cli.threads, 1,
                              static_cast<int>(exp::kMaxThreads));
    } else if (flag == "--stabilize") {
      ok = util::parse_number(value, cli.stabilize, Time{0});
    } else if (flag == "--crash-at") {
      ok = util::parse_number(value, cli.crash_at, Time{0});
    } else if (flag == "--max-steps") {
      ok = util::parse_number(value, cli.max_steps, std::int64_t{1});
    } else if (flag == "--faulty-mode") {
      cli.faulty_mode = value;
    } else if (flag == "--fd") {
      cli.fd = value;
    } else if (flag == "--print-steps") {
      ok = util::parse_number(value, cli.print_steps, std::size_t{0});
    } else if (flag == "--trace") {
      cli.trace_file = value;
    } else if (flag == "--replay") {
      cli.replay = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return usage(argv[0]);
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: %s\n", flag.c_str(), value);
      return usage(argv[0]);
    }
  }

  if (!cli.replay.empty()) {
    const auto artifact = exp::ReplayArtifact::parse(cli.replay);
    if (!artifact) {
      std::fprintf(stderr, "unparseable replay artifact: %s\n",
                   cli.replay.c_str());
      return usage(argv[0]);
    }
    std::printf("replaying serially: %s\n", artifact->to_string().c_str());
    print_point(artifact->point, exp::replay_failure(*artifact),
                cli.print_steps);
    if (!cli.trace_file.empty() &&
        !write_trace(artifact->point, cli.trace_file)) {
      return 1;
    }
    return 0;
  }

  const auto algo = exp::parse_algo(cli.algo);
  const auto mode = parse_mode(cli.faulty_mode);
  const auto fd = parse_fd(cli.fd);
  if (!algo || !mode || !fd || cli.faults >= cli.n ||
      (*fd == exp::FdSource::kImplemented &&
       !exp::supports_implemented_fd(*algo))) {
    if (!algo) {
      std::fprintf(stderr, "unknown --algo: %s\n", cli.algo.c_str());
    } else if (!mode) {
      std::fprintf(stderr, "unknown --faulty-mode: %s\n",
                   cli.faulty_mode.c_str());
    } else if (!fd) {
      std::fprintf(stderr, "unknown --fd: %s\n", cli.fd.c_str());
    } else if (fd && *fd == exp::FdSource::kImplemented &&
               !exp::supports_implemented_fd(*algo)) {
      std::fprintf(stderr,
                   "--fd implemented: %s consumes no Omega/<>S oracle layer\n",
                   cli.algo.c_str());
    } else {
      std::fprintf(stderr, "invalid combination: n=%d faults=%d\n", cli.n,
                   cli.faults);
    }
    return usage(argv[0]);
  }

  std::vector<exp::SweepPoint> points;
  points.reserve(static_cast<std::size_t>(cli.seeds));
  for (int k = 0; k < cli.seeds; ++k) {
    exp::SweepPoint pt;
    pt.algo = *algo;
    pt.n = cli.n;
    pt.faults = cli.faults;
    pt.stabilize = cli.stabilize;
    pt.crash_at = cli.crash_at;
    pt.faulty_mode = *mode;
    pt.max_steps = cli.max_steps;
    pt.seed = cli.seed + static_cast<std::uint64_t>(k);
    pt.fd = *fd;
    points.push_back(pt);
  }

  const exp::SweepResult sweep =
      exp::SweepRunner(static_cast<unsigned>(cli.threads)).run(points);

  for (std::size_t k = 0; k < sweep.jobs.size(); ++k) {
    const exp::JobOutcome& job = sweep.jobs[k];
    print_point(job.point, job.stats, cli.print_steps);
    if (!cli.trace_file.empty()) {
      // One file per seed; a single-seed run gets the name verbatim.
      const std::string path =
          sweep.jobs.size() == 1 ? cli.trace_file
                                 : cli.trace_file + ".seed" + std::to_string(k);
      if (!write_trace(job.point, path)) return 1;
    }
  }

  if (cli.seeds > 1) {
    const exp::SweepAggregate& agg = sweep.aggregate;
    std::printf(
        "\nsummary: %lld runs, %lld undecided, %lld nonuniform-agreement "
        "violations (%d threads, %.2fs)\n",
        (long long)agg.runs, (long long)agg.undecided,
        (long long)agg.nonuniform_violations, cli.threads,
        sweep.wall_seconds);
    for (const exp::ReplayArtifact& a : agg.failures) {
      std::printf("replay failed run with: %s --replay '%s'\n", argv[0],
                  a.to_string().c_str());
    }
  }
  return 0;
}
