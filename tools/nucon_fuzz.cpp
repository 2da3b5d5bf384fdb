// nucon_fuzz: coverage-guided schedule/history fuzzing from the command
// line.
//
//   nucon_fuzz --algo naive --n 4 --time-budget 10 --corpus-dir fuzz-out
//   nucon_fuzz --algo anuc --max-execs 2048 --threads 8 --report BENCH_fuzz.json
//
// Mutates schedule genomes (delivery choices, crash times, FD
// perturbations) against one registered algorithm, guided by the model
// checker's 128-bit state keys and trace divergence shapes, and ddmin-
// minimizes every find into a replayable counterexample. With the same
// --seed and --max-execs the corpus, the finds and the report body are
// bit-identical at any --threads.
//
// Flags:
//   --algo NAME        target algorithm (exp registry name; the alias
//                      naive_sigma_nu selects the paper's broken
//                      substitution). Default naive.
//   --n N              system size (default 4)
//   --stabilize T      oracle stabilization time (default 120)
//   --max-steps K      per-execution step cap (default 20000)
//   --seed S           master seed (default 1)
//   --max-execs E      execution budget (default 2048)
//   --time-budget SEC  wall-clock box, checked per batch (default off)
//   --threads T        worker threads, T <= 256 (default 1; 0 = hardware)
//   --max-finds F      stop after F distinct finds (default 4)
//   --corpus-dir DIR   write corpus + find artifacts (default off)
//   --report PATH      write the BENCH_fuzz.json report (default off)
//   --no-minimize      keep finds as discovered
//   --expect-find      exit 1 unless at least one find was made
//
// Numbers must be whole tokens in range ("4x", "-1" and overflow are
// refused); a bad flag or value prints usage and exits 2.
#include <cstdio>
#include <cstring>
#include <string>

#include "exp/thread_pool.hpp"
#include "fuzz/engine.hpp"
#include "util/parse_number.hpp"

using namespace nucon;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--algo NAME] [--n N] [--stabilize T] "
               "[--max-steps K] [--seed S] [--max-execs E] "
               "[--time-budget SEC] [--threads T] [--max-finds F] "
               "[--corpus-dir DIR] [--report PATH] [--no-minimize] "
               "[--expect-find]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::EngineOptions opts;
  std::string corpus_dir;
  std::string report_path;
  bool expect_find = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--no-minimize") {
      opts.minimize = false;
      continue;
    }
    if (flag == "--expect-find") {
      expect_find = true;
      continue;
    }
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (v == nullptr) {
      std::fprintf(stderr, "missing value for flag: %s\n", flag.c_str());
      return usage(argv[0]);
    }
    bool ok = true;
    if (flag == "--algo") {
      // The paper's broken substitution goes by its file name too.
      const std::string name = std::strcmp(v, "naive_sigma_nu") == 0
                                   ? "naive"
                                   : std::string(v);
      const auto a = exp::parse_algo(name);
      if (!a) {
        std::fprintf(stderr, "unknown algorithm: %s\n", v);
        return 2;
      }
      opts.target.algo = *a;
    } else if (flag == "--n") {
      ok = util::parse_number(v, opts.target.n, Pid{2}, kMaxProcesses);
    } else if (flag == "--stabilize") {
      ok = util::parse_number(v, opts.target.stabilize, Time{0});
    } else if (flag == "--max-steps") {
      ok = util::parse_number(v, opts.target.max_steps, std::int64_t{1});
    } else if (flag == "--seed") {
      ok = util::parse_number(v, opts.master_seed, std::uint64_t{0});
    } else if (flag == "--max-execs") {
      ok = util::parse_number(v, opts.max_execs, std::size_t{0});
    } else if (flag == "--time-budget") {
      ok = util::parse_number(v, opts.time_budget_seconds, 0.0);
    } else if (flag == "--threads") {
      ok = util::parse_number(v, opts.threads, 0u, exp::kMaxThreads);
    } else if (flag == "--max-finds") {
      ok = util::parse_number(v, opts.max_finds, std::size_t{0});
    } else if (flag == "--corpus-dir") {
      corpus_dir = v;
    } else if (flag == "--report") {
      report_path = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return usage(argv[0]);
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: %s\n", flag.c_str(), v);
      return usage(argv[0]);
    }
  }

  const fuzz::FuzzResult result = fuzz::run_fuzz(opts);
  const fuzz::FuzzStats& s = result.stats;

  std::printf("fuzz algo=%s n=%d: %zu execs, %zu corpus, %zu unique states, "
              "%zu divergence shapes, %zu finds (%.2fs, %.0f execs/s)\n",
              exp::algo_name(opts.target.algo), opts.target.n, s.execs,
              s.corpus_size, s.unique_states, s.divergence_shapes, s.finds,
              s.wall_seconds,
              s.wall_seconds > 0.0
                  ? static_cast<double>(s.execs) / s.wall_seconds
                  : 0.0);
  for (std::size_t k = 0; k < result.finds.size(); ++k) {
    const fuzz::Find& f = result.finds[k];
    std::printf("find %zu: %s (%s) at exec %zu; minimized %zu->%zu delivery "
                "genes, %zu->%zu perturbs\n",
                k, f.violation.c_str(),
                f.divergence_shape.empty() ? "-" : f.divergence_shape.c_str(),
                f.exec_index, f.genome.deliveries.size(),
                f.minimized.deliveries.size(), f.genome.fd_perturbs.size(),
                f.minimized.fd_perturbs.size());
  }

  if (!corpus_dir.empty() && !fuzz::write_artifacts(result, corpus_dir)) {
    std::fprintf(stderr, "cannot write artifacts to %s\n", corpus_dir.c_str());
    return 1;
  }
  if (!corpus_dir.empty()) {
    std::printf("artifacts: %s (find-K.min.genome replays via "
                "fuzz_corpus_test; find-K.trace.jsonl feeds trace_explain)\n",
                corpus_dir.c_str());
  }

  if (!report_path.empty()) {
    obs::BenchReport report = fuzz::fuzz_report(opts, result);
    report.timings["fuzz"] = s.wall_seconds;
    if (s.wall_seconds > 0.0) {
      report.timings["execs_per_second"] =
          static_cast<double>(s.execs) / s.wall_seconds;
    }
    if (!obs::write_report_json(report, report_path)) {
      std::fprintf(stderr, "cannot write report to %s\n", report_path.c_str());
      return 1;
    }
  }

  if (expect_find && result.finds.empty()) {
    std::fprintf(stderr, "expected at least one find, got none\n");
    return 1;
  }
  return 0;
}
