#include "exp/sweep.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>

#include "algo/ben_or.hpp"
#include "algo/ct_consensus.hpp"
#include "algo/mr_consensus.hpp"
#include "core/anuc.hpp"
#include "core/from_scratch.hpp"
#include "core/stacked_nuc.hpp"
#include "exp/thread_pool.hpp"
#include "obs/report.hpp"
#include "fd/classic.hpp"
#include "fd/composed.hpp"
#include "fd/impl/host.hpp"
#include "fd/omega.hpp"
#include "fd/scripted.hpp"
#include "fd/sigma.hpp"
#include "fd/sigma_nu.hpp"

namespace nucon::exp {
namespace {

struct AlgoInfo {
  Algo algo;
  const char* name;
  Expect expect;
};

constexpr AlgoInfo kAlgoTable[] = {
    {Algo::kAnuc, "anuc", Expect::kNonuniform},
    {Algo::kStacked, "stacked", Expect::kNonuniform},
    {Algo::kMrMajority, "mr-majority", Expect::kUniform},
    {Algo::kMrSigma, "mr-sigma", Expect::kUniform},
    {Algo::kNaive, "naive", Expect::kNone},
    {Algo::kCt, "ct", Expect::kUniform},
    {Algo::kBenOr, "ben-or", Expect::kUniform},
    {Algo::kFromScratch, "from-scratch", Expect::kUniform},
};

const AlgoInfo& info_of(Algo a) {
  for (const AlgoInfo& i : kAlgoTable) {
    if (i.algo == a) return i;
  }
  throw std::invalid_argument("unknown Algo");
}

std::optional<FdSource> parse_fd_source(const std::string& s) {
  if (s == "generated") return FdSource::kGenerated;
  if (s == "implemented") return FdSource::kImplemented;
  return std::nullopt;
}

/// The detector class the hosted heartbeat modules present to `a`'s
/// canonical stack: the leader consumers take Omega, CT takes <>S.
HeartbeatMode implemented_mode_of(Algo a) {
  if (a == Algo::kCt) return HeartbeatMode::kDiamondS;
  return HeartbeatMode::kOmega;
}

void validate(const SweepPoint& pt) {
  if (pt.n < 2 || pt.n > kMaxProcesses || pt.faults < 0 || pt.faults >= pt.n ||
      pt.max_steps <= 0 ||
      (pt.fd == FdSource::kImplemented && !supports_implemented_fd(pt.algo))) {
    throw std::invalid_argument("infeasible SweepPoint: " +
                                ReplayArtifact{pt}.to_string());
  }
}

/// Everything a point's run needs, derived from the point alone via the
/// public AlgoOracles/consensus_factory_of pieces. The seed offsets match
/// tools/nucon_explore's historical scheme so explorer sessions before and
/// after the engine landed replay identically.
struct PointSetup {
  FailurePattern fp;
  /// Only populated for fd=implemented points: the FdHost-wrapped factory
  /// plus the board its heartbeat modules publish to.
  HostedConsensus hosted;
  AlgoOracles oracle;
  ConsensusFactory make;
  std::vector<Value> proposals;
  SchedulerOptions opts;

  explicit PointSetup(const SweepPoint& pt)
      : fp(failure_pattern_of(pt)),
        hosted(pt.fd == FdSource::kImplemented
                   ? make_hosted_consensus(
                         consensus_factory_of(pt.algo, pt.n, pt.seed), pt.n,
                         implemented_mode_of(pt.algo))
                   : HostedConsensus{}),
        oracle(pt.algo, fp, pt.stabilize, pt.faulty_mode, pt.seed,
               hosted.board, pt.hold),
        make(hosted.board ? hosted.factory
                          : consensus_factory_of(pt.algo, pt.n, pt.seed)),
        proposals(proposals_of(pt)) {
    opts.seed = pt.seed;
    opts.max_steps = pt.max_steps;
    // Implemented detectors run under the timed network: latency becomes a
    // modeled quantity the timeouts can track, so suspicions stabilize
    // instead of chasing the adversarial delivery policy. Part of the
    // point's deterministic derivation, so artifacts replay identically.
    if (pt.fd == FdSource::kImplemented) opts.timing.enabled = true;
  }
};

/// The cell a point belongs to: everything but the seed. Points of one
/// cell fold into one report section.
std::string cell_spec_of(const SweepPoint& pt) {
  std::ostringstream os;
  os << "algo=" << algo_name(pt.algo) << " n=" << pt.n
     << " faults=" << pt.faults << " stab=" << pt.stabilize
     << " crash=" << pt.crash_at << " mode=" << mode_name(pt.faulty_mode)
     << " steps=" << pt.max_steps;
  // Printed only off-default: specs and artifacts from before the fd and
  // hold dimensions existed (including those embedded in golden traces)
  // must stay byte-identical.
  if (pt.fd != FdSource::kGenerated) os << " fd=" << fd_source_name(pt.fd);
  if (pt.hold != 8) os << " hold=" << pt.hold;
  return os.str();
}

/// Builds and writes the runner-level report: per-cell sections in
/// first-appearance (= expansion) order, then a "total" section carrying
/// the failure artifacts and attached trace paths.
void write_runner_report(const SweepResult& result, const std::string& path) {
  obs::BenchReport report;
  report.name = "sweep";

  std::vector<std::string> cell_order;
  std::map<std::string, std::vector<std::size_t>> cells;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const std::string spec = cell_spec_of(result.jobs[i].point);
    auto [it, inserted] = cells.try_emplace(spec);
    if (inserted) cell_order.push_back(spec);
    it->second.push_back(i);
  }
  for (std::size_t k = 0; k < cell_order.size(); ++k) {
    const std::string& spec = cell_order[k];
    report.sweeps.push_back(obs::section_of_jobs(
        "cell-" + std::to_string(k), spec, result.jobs, cells[spec]));
  }
  report.sweeps.push_back(obs::section_of(
      "total", std::to_string(result.jobs.size()) + " points", result));
  if (!result.profile.empty()) {
    report.profiles.push_back(
        obs::profile_section_of("sweep-total", result.profile));
  }
  report.timings["execute"] = result.wall_seconds;
  report.timings["fold"] = result.fold_seconds;
  if (!obs::write_report_json(report, path)) {
    std::fprintf(stderr, "sweep: cannot write report to %s\n", path.c_str());
  }
}

bool meets_expectation(const SweepPoint& pt, const ConsensusRunStats& stats) {
  switch (expectation(pt.algo)) {
    case Expect::kNonuniform:
      return stats.verdict.solves_nonuniform();
    case Expect::kUniform:
      return stats.verdict.solves_uniform();
    case Expect::kNone:
      return true;
  }
  return true;
}

}  // namespace

const char* algo_name(Algo a) { return info_of(a).name; }

std::optional<Algo> parse_algo(const std::string& name) {
  for (const AlgoInfo& i : kAlgoTable) {
    if (name == i.name) return i.algo;
  }
  return std::nullopt;
}

const char* mode_name(FaultyQuorumBehavior b) {
  switch (b) {
    case FaultyQuorumBehavior::kBenign:
      return "benign";
    case FaultyQuorumBehavior::kNoise:
      return "noise";
    default:
      return "adversarial";
  }
}

std::optional<FaultyQuorumBehavior> parse_mode(const std::string& name) {
  if (name == "benign") return FaultyQuorumBehavior::kBenign;
  if (name == "noise") return FaultyQuorumBehavior::kNoise;
  if (name == "adversarial") return FaultyQuorumBehavior::kAdversarialDisjoint;
  return std::nullopt;
}

Expect expectation(Algo a) { return info_of(a).expect; }

const char* fd_source_name(FdSource s) {
  return s == FdSource::kImplemented ? "implemented" : "generated";
}

bool supports_implemented_fd(Algo a) {
  // Ben-Or reads no detector and from-scratch builds its own Omega from
  // scratch; neither consumes an Omega/<>S oracle layer to replace.
  return a != Algo::kBenOr && a != Algo::kFromScratch;
}

AlgoOracles::AlgoOracles(Algo algo, const FailurePattern& fp, Time stabilize,
                         FaultyQuorumBehavior faulty_mode, std::uint64_t seed,
                         std::shared_ptr<FdBoard> board, Time hold) {
  if (board && !supports_implemented_fd(algo)) {
    throw std::invalid_argument(
        "AlgoOracles: algorithm has no Omega/<>S layer to implement");
  }
  // The algorithm's Omega (or, for CT, <>S) layer: the hosted heartbeat
  // modules' output board when one is supplied, the generated oracle
  // otherwise. Quorum layers and their seed offsets are identical in both
  // configurations.
  const auto leader_layer = [&]() -> Oracle& {
    if (board) return make<ImplementedOracle>(board);
    OmegaOptions oo;
    oo.stabilize_at = stabilize;
    oo.seed = seed;
    return make<OmegaOracle>(fp, oo);
  };
  switch (algo) {
    case Algo::kAnuc: {
      auto& omega = leader_layer();
      SigmaNuPlusOptions spo;
      spo.stabilize_at = stabilize;
      spo.seed = seed + 0x53;
      spo.faulty = faulty_mode;
      spo.hold = hold;
      auto& plus = make<SigmaNuPlusOracle>(fp, spo);
      make<ComposedOracle>(omega, plus);
      break;
    }
    case Algo::kStacked:
    case Algo::kNaive: {
      auto& omega = leader_layer();
      SigmaNuOptions sno;
      sno.stabilize_at = stabilize;
      sno.seed = seed + 0x52;
      sno.faulty = faulty_mode;
      sno.hold = hold;
      auto& nu = make<SigmaNuOracle>(fp, sno);
      make<ComposedOracle>(omega, nu);
      break;
    }
    case Algo::kMrMajority: {
      leader_layer();
      break;
    }
    case Algo::kMrSigma: {
      auto& omega = leader_layer();
      SigmaOptions so;
      so.stabilize_at = stabilize;
      so.seed = seed + 0x51;
      so.hold = hold;
      auto& sigma = make<SigmaOracle>(fp, so);
      make<ComposedOracle>(omega, sigma);
      break;
    }
    case Algo::kCt: {
      if (board) {
        make<ImplementedOracle>(board);
        break;
      }
      SuspectsOptions sso;
      sso.stabilize_at = stabilize;
      sso.seed = seed + 0x54;
      make<EvtStrongOracle>(fp, sso);
      break;
    }
    case Algo::kBenOr:
    case Algo::kFromScratch: {
      make<ScriptedOracle>([](Pid, Time) { return FdValue{}; });
      break;
    }
  }
}

ConsensusFactory consensus_factory_of(Algo a, Pid n, std::uint64_t seed) {
  switch (a) {
    case Algo::kAnuc:
      return make_anuc(n);
    case Algo::kStacked:
      return make_stacked_nuc(n);
    case Algo::kMrMajority:
      return make_mr_majority(n);
    case Algo::kMrSigma:
    case Algo::kNaive:
      return make_mr_fd_quorum(n);
    case Algo::kCt:
      return make_ct(n);
    case Algo::kBenOr:
      return make_ben_or(n, static_cast<Pid>((n - 1) / 2), seed);
    case Algo::kFromScratch:
      return make_from_scratch(n, static_cast<Pid>((n - 1) / 2));
  }
  throw std::invalid_argument("unknown Algo");
}

const char* expect_name(Expect e) {
  switch (e) {
    case Expect::kNonuniform:
      return "nonuniform";
    case Expect::kUniform:
      return "uniform";
    case Expect::kNone:
      return "none";
  }
  return "none";
}

std::vector<SweepPoint> SweepGrid::expand() const {
  std::vector<SweepPoint> points;
  for (Algo algo : algos) {
    // Infeasible like faults >= n: silently skipped, not an error.
    if (fd == FdSource::kImplemented && !supports_implemented_fd(algo)) {
      continue;
    }
    for (Pid n : ns) {
      for (Pid faults : fault_counts) {
        if (faults < 0 || faults >= n) continue;  // infeasible cell
        for (Time stabilize : stabilizes) {
          for (FaultyQuorumBehavior mode : faulty_modes) {
            for (int k = 0; k < seed_count; ++k) {
              SweepPoint pt;
              pt.algo = algo;
              pt.n = n;
              pt.faults = faults;
              pt.stabilize = stabilize;
              pt.crash_at = crash_at;
              pt.faulty_mode = mode;
              pt.max_steps = max_steps;
              pt.seed = seed_begin + static_cast<std::uint64_t>(k);
              pt.fd = fd;
              points.push_back(pt);
            }
          }
        }
      }
    }
  }
  return points;
}

std::string ReplayArtifact::to_string() const {
  std::ostringstream os;
  os << "algo=" << algo_name(point.algo) << " n=" << point.n
     << " faults=" << point.faults << " stab=" << point.stabilize
     << " crash=" << point.crash_at << " mode=" << mode_name(point.faulty_mode)
     << " steps=" << point.max_steps << " seed=" << point.seed;
  // Off-default only; see cell_spec_of.
  if (point.fd != FdSource::kGenerated) {
    os << " fd=" << fd_source_name(point.fd);
  }
  if (point.hold != 8) os << " hold=" << point.hold;
  return os.str();
}

std::optional<ReplayArtifact> ReplayArtifact::parse(const std::string& line) {
  SweepPoint pt;
  bool saw_algo = false;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "algo") {
      const auto a = parse_algo(value);
      if (!a) return std::nullopt;
      pt.algo = *a;
      saw_algo = true;
    } else if (key == "mode") {
      const auto m = parse_mode(value);
      if (!m) return std::nullopt;
      pt.faulty_mode = *m;
    } else if (key == "fd") {
      const auto s = parse_fd_source(value);
      if (!s) return std::nullopt;
      pt.fd = *s;
    } else if (key == "seed") {
      // Seeds are unsigned: std::stoll would reject (throw on) every seed
      // >= 2^63, so artifacts printed from the top half of the seed space
      // would not round-trip. Signed fields below keep std::stoll.
      if (value.empty() || value[0] == '-') return std::nullopt;
      try {
        pt.seed = std::stoull(value);
      } catch (...) {
        return std::nullopt;
      }
    } else {
      std::int64_t v = 0;
      try {
        v = std::stoll(value);
      } catch (...) {
        return std::nullopt;
      }
      if (key == "n") {
        pt.n = static_cast<Pid>(v);
      } else if (key == "faults") {
        pt.faults = static_cast<Pid>(v);
      } else if (key == "stab") {
        pt.stabilize = v;
      } else if (key == "hold") {
        pt.hold = v;
      } else if (key == "crash") {
        pt.crash_at = v;
      } else if (key == "steps") {
        pt.max_steps = v;
      } else {
        return std::nullopt;
      }
    }
  }
  if (!saw_algo || pt.n < 2 || pt.n > kMaxProcesses || pt.faults < 0 ||
      pt.faults >= pt.n || pt.max_steps <= 0 || pt.hold < 1 ||
      (pt.fd == FdSource::kImplemented && !supports_implemented_fd(pt.algo))) {
    return std::nullopt;
  }
  return ReplayArtifact{pt};
}

FailurePattern failure_pattern_of(const SweepPoint& pt) {
  validate(pt);
  FailurePattern fp(pt.n);
  Rng rng(pt.seed * 2654435761ULL + 99);
  // Random crash times land in [lo, hi]: shortly before stabilization when
  // stabilize is large enough, otherwise a floor window derived from the
  // step budget. The old upper bound max(stabilize - 10, 11) collapsed the
  // window to {10, 11} for every stabilize <= 21, so all small-stabilize
  // grid cells silently tested the same crash time.
  const Time lo = 10;
  const Time budget_hi = std::clamp<Time>(pt.max_steps / 4, lo + 10, 64);
  const Time hi = std::max<Time>(pt.stabilize - 10, budget_hi);
  assert(hi > lo && "degenerate crash-time window");
  for (Pid p : rng.pick_subset(ProcessSet::full(pt.n), pt.faults)) {
    fp.set_crash(p, pt.crash_at > 0 ? pt.crash_at : rng.range(lo, hi));
  }
  return fp;
}

std::vector<Value> proposals_of(const SweepPoint& pt) {
  return mixed_proposals(pt.n);
}

ConsensusRunStats run_point(const SweepPoint& pt,
                            prof::ProfileCollector* profile) {
  PointSetup setup(pt);
  // Sweep jobs fold into summary stats; nobody reads the StepRecord
  // vector, so skip growing it. simulate_point/trace_point keep recording.
  setup.opts.record_run = false;
  setup.opts.profile = profile;
  return run_consensus(setup.fp, setup.oracle.top(), setup.make,
                       setup.proposals, setup.opts);
}

SimResult simulate_point(const SweepPoint& pt) {
  PointSetup setup(pt);
  return simulate_consensus(setup.fp, setup.oracle.top(), setup.make,
                            setup.proposals, setup.opts);
}

ConsensusRunStats replay_failure(const ReplayArtifact& artifact) {
  return run_point(artifact.point);
}

TracedRun trace_point(const SweepPoint& pt, trace::TraceRecorder::Options opts) {
  PointSetup setup(pt);
  trace::TraceRecorder recorder(opts);
  recorder.begin_run(setup.fp, ReplayArtifact{pt}.to_string(),
                     expect_name(expectation(pt.algo)));
  setup.opts.trace = &recorder;

  TracedRun out;
  out.stats = run_consensus(setup.fp, setup.oracle.top(), setup.make,
                            setup.proposals, setup.opts);
  recorder.annotate(trace::verdict_json(out.stats.verdict));
  out.jsonl = recorder.jsonl();
  return out;
}

SweepResult SweepRunner::run(const SweepGrid& grid) const {
  return run(grid.expand());
}

SweepResult SweepRunner::run(const std::vector<SweepPoint>& points) const {
  for (const SweepPoint& pt : points) validate(pt);

  SweepResult result;
  result.jobs.resize(points.size());

  const auto started = std::chrono::steady_clock::now();
  {
    // Each future writes only its own preallocated slot, so the result
    // vector is ordered by expansion index no matter which worker finishes
    // first. The pool drains on scope exit.
    ThreadPool pool(threads_);
    std::vector<std::future<void>> done;
    done.reserve(points.size());
    const bool profiling = profiling_;
    for (std::size_t i = 0; i < points.size(); ++i) {
      done.push_back(pool.submit([&result, &points, profiling, i] {
        JobOutcome out;
        out.point = points[i];
        // One collector per job: the rdtsc probes are single-threaded,
        // and the serial merge below keeps the counts deterministic.
        out.stats =
            run_point(points[i], profiling ? &out.profile : nullptr);
        out.ok = meets_expectation(out.point, out.stats);
        result.jobs[i] = std::move(out);
      }));
    }
    for (std::future<void>& f : done) f.get();  // rethrows job exceptions
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  // Serial fold in expansion order: bit-identical for any thread count.
  const auto fold_started = std::chrono::steady_clock::now();
  SweepAggregate& agg = result.aggregate;
  for (const JobOutcome& job : result.jobs) {
    ++agg.runs;
    if (!job.stats.all_correct_decided) ++agg.undecided;
    if (!job.stats.verdict.termination) ++agg.termination_failures;
    if (!job.stats.verdict.uniform_agreement) ++agg.uniform_violations;
    if (!job.stats.verdict.nonuniform_agreement) ++agg.nonuniform_violations;
    if (!job.ok) {
      ++agg.expectation_failures;
      agg.failures.push_back(ReplayArtifact{job.point});
      if (!trace_dir_.empty()) {
        // Serial re-execution with a recorder attached: bit-identical to
        // the worker's run by the replay guarantee, and performed in the
        // serial fold, so the written bytes do not depend on thread count.
        std::filesystem::create_directories(trace_dir_);
        const std::string path =
            trace_dir_ + "/failure-" +
            std::to_string(agg.failures.size() - 1) + ".trace.jsonl";
        const TracedRun traced = trace_point(job.point);
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << traced.jsonl;
        agg.failure_trace_paths.push_back(path);
      }
    }
    if (job.stats.decide_round > 0) agg.decide_rounds.add(job.stats.decide_round);
    agg.steps.add(static_cast<double>(job.stats.steps));
    agg.messages.add(static_cast<double>(job.stats.messages_sent));
    agg.kbytes.add(static_cast<double>(job.stats.bytes_sent) / 1024.0);
    agg.metrics.merge(job.stats.metrics);
    result.profile.merge(job.profile);
  }
  result.fold_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - fold_started)
                            .count();
  if (result.wall_seconds > 0.0) {
    result.steps_per_second = agg.steps.sum() / result.wall_seconds;
  }
  if (!report_path_.empty()) write_runner_report(result, report_path_);
  return result;
}

}  // namespace nucon::exp
