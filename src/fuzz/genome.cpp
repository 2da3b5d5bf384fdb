#include "fuzz/genome.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "algo/harness.hpp"
#include "fd/failure_detector.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_recorder.hpp"

namespace nucon::fuzz {
namespace {

const char* kind_name(PerturbKind k) {
  switch (k) {
    case PerturbKind::kLeader:
      return "leader";
    case PerturbKind::kQuorumDrop:
      return "quorum-drop";
    case PerturbKind::kQuorumAdd:
      return "quorum-add";
    case PerturbKind::kSuspectFlip:
      return "suspect-flip";
  }
  return "leader";
}

std::optional<PerturbKind> parse_kind(const std::string& s) {
  if (s == "leader") return PerturbKind::kLeader;
  if (s == "quorum-drop") return PerturbKind::kQuorumDrop;
  if (s == "quorum-add") return PerturbKind::kQuorumAdd;
  if (s == "suspect-flip") return PerturbKind::kSuspectFlip;
  return std::nullopt;
}

void validate(const Genome& g) {
  const TargetSpec& t = g.target;
  if (t.n < 2 || t.n > kMaxProcesses || t.max_steps <= 0) {
    throw std::invalid_argument("infeasible fuzz target");
  }
  if (!g.crashes.empty()) {
    if (g.crashes.size() != static_cast<std::size_t>(t.n)) {
      throw std::invalid_argument("crash gene vector must have size n");
    }
    bool any_correct = false;
    for (Time c : g.crashes) {
      if (c == kNeverCrashes) {
        any_correct = true;
      } else if (c < 0) {
        throw std::invalid_argument("crash time must be >= 0");
      }
    }
    if (!any_correct) {
      throw std::invalid_argument("at least one process must stay correct");
    }
  }
}

/// Applies the genome's perturbation genes on top of the canonical oracle
/// stack. Still a fixed history: value(p, t) is a pure function.
class PerturbedOracle final : public Oracle {
 public:
  PerturbedOracle(Oracle& base, const std::vector<FdPerturbGene>& genes, Pid n)
      : base_(base), genes_(genes), n_(n) {}

  [[nodiscard]] FdValue value(Pid p, Time t) override {
    FdValue v = base_.value(p, t);
    for (const FdPerturbGene& g : genes_) {
      if (g.p != p || t < g.from_t || t >= g.from_t + g.count) continue;
      const Pid tgt = static_cast<Pid>(
          ((g.target % n_) + n_) % n_);  // any int gene maps into [0, n)
      switch (g.kind) {
        case PerturbKind::kLeader:
          v.set_leader(tgt);
          break;
        case PerturbKind::kQuorumDrop:
          if (v.has_quorum()) {
            ProcessSet q = v.quorum();
            q.erase(tgt);
            v.set_quorum(q);
          }
          break;
        case PerturbKind::kQuorumAdd:
          if (v.has_quorum()) {
            ProcessSet q = v.quorum();
            q.insert(tgt);
            v.set_quorum(q);
          }
          break;
        case PerturbKind::kSuspectFlip:
          if (v.has_suspects()) {
            ProcessSet s = v.suspects();
            if (s.contains(tgt)) {
              s.erase(tgt);
            } else {
              s.insert(tgt);
            }
            v.set_suspects(s);
          }
          break;
      }
    }
    return v;
  }

 private:
  Oracle& base_;
  const std::vector<FdPerturbGene>& genes_;
  Pid n_;
};

std::string artifact_of(const Genome& g) {
  std::ostringstream os;
  os << "fuzz algo=" << exp::algo_name(g.target.algo) << " n=" << g.target.n
     << " stab=" << g.target.stabilize
     << " mode=" << exp::mode_name(g.target.faulty_mode)
     << " steps=" << g.target.max_steps << " seed=" << g.seed
     << " genes=" << g.deliveries.size() << "+" << g.fd_perturbs.size();
  return os.str();
}

std::string shape_of(const trace::DivergenceReport& report) {
  const trace::Divergence& d =
      report.nonuniform.found ? report.nonuniform : report.uniform;
  if (!d.found) return {};
  std::ostringstream os;
  os << (report.nonuniform.found ? "nonuniform" : "uniform") << " p" << d.p
     << "=" << d.value << " vs p" << d.earlier_p << "=" << d.earlier_value;
  return os.str();
}

}  // namespace

std::string Genome::to_string() const {
  std::ostringstream os;
  os << "nucon-genome v1\n";
  os << "algo " << exp::algo_name(target.algo) << "\n";
  os << "n " << target.n << "\n";
  os << "stabilize " << target.stabilize << "\n";
  os << "mode " << exp::mode_name(target.faulty_mode) << "\n";
  os << "max-steps " << target.max_steps << "\n";
  os << "seed " << seed << "\n";
  if (!crashes.empty()) {
    for (Pid p = 0; p < target.n; ++p) {
      const Time c = crashes[static_cast<std::size_t>(p)];
      if (c != kNeverCrashes) os << "crash " << p << " " << c << "\n";
    }
  }
  for (const FdPerturbGene& g : fd_perturbs) {
    os << "perturb " << g.p << " " << g.from_t << " " << g.count << " "
       << kind_name(g.kind) << " " << g.target << "\n";
  }
  if (!deliveries.empty()) {
    os << "deliveries";
    for (std::int32_t d : deliveries) os << " " << d;
    os << "\n";
  }
  if (!expected.empty()) os << "expected " << expected << "\n";
  os << "end\n";
  return os.str();
}

std::optional<Genome> Genome::parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "nucon-genome v1") return std::nullopt;

  Genome g;
  g.crashes.clear();
  bool saw_end = false;
  std::vector<std::pair<Pid, Time>> crash_genes;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "algo") {
      std::string name;
      ls >> name;
      const auto a = exp::parse_algo(name);
      if (!a) return std::nullopt;
      g.target.algo = *a;
    } else if (key == "n") {
      int n = 0;
      if (!(ls >> n) || n < 2 || n > kMaxProcesses) return std::nullopt;
      g.target.n = static_cast<Pid>(n);
    } else if (key == "stabilize") {
      if (!(ls >> g.target.stabilize)) return std::nullopt;
    } else if (key == "mode") {
      std::string name;
      ls >> name;
      const auto m = exp::parse_mode(name);
      if (!m) return std::nullopt;
      g.target.faulty_mode = *m;
    } else if (key == "max-steps") {
      if (!(ls >> g.target.max_steps) || g.target.max_steps <= 0) {
        return std::nullopt;
      }
    } else if (key == "seed") {
      if (!(ls >> g.seed)) return std::nullopt;
    } else if (key == "crash") {
      int p = 0;
      Time c = 0;
      if (!(ls >> p >> c) || c < 0) return std::nullopt;
      crash_genes.emplace_back(static_cast<Pid>(p), c);
    } else if (key == "perturb") {
      FdPerturbGene pg;
      std::string kind;
      int p = 0, target = 0;
      if (!(ls >> p >> pg.from_t >> pg.count >> kind >> target)) {
        return std::nullopt;
      }
      const auto k = parse_kind(kind);
      if (!k || pg.count <= 0) return std::nullopt;
      pg.p = static_cast<Pid>(p);
      pg.target = static_cast<Pid>(target);
      pg.kind = *k;
      g.fd_perturbs.push_back(pg);
    } else if (key == "deliveries") {
      std::int32_t d = 0;
      while (ls >> d) g.deliveries.push_back(d);
    } else if (key == "expected") {
      ls >> g.expected;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_end) return std::nullopt;
  if (!crash_genes.empty()) {
    g.crashes.assign(static_cast<std::size_t>(g.target.n), kNeverCrashes);
    for (const auto& [p, c] : crash_genes) {
      if (p < 0 || p >= g.target.n) return std::nullopt;
      g.crashes[static_cast<std::size_t>(p)] = c;
    }
  }
  for (const FdPerturbGene& pg : g.fd_perturbs) {
    if (pg.p < 0 || pg.p >= g.target.n) return std::nullopt;
  }
  try {
    validate(g);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return g;
}

FailurePattern failure_pattern_of(const Genome& g) {
  validate(g);
  FailurePattern fp(g.target.n);
  if (!g.crashes.empty()) {
    for (Pid p = 0; p < g.target.n; ++p) {
      const Time c = g.crashes[static_cast<std::size_t>(p)];
      if (c != kNeverCrashes) fp.set_crash(p, c);
    }
  }
  return fp;
}

ExecutionResult execute_genome(const Genome& g, const ExecOptions& eopts) {
  validate(g);
  const TargetSpec& t = g.target;
  const FailurePattern fp = failure_pattern_of(g);

  exp::AlgoOracles oracles(t.algo, fp, t.stabilize, t.faulty_mode, g.seed);
  PerturbedOracle oracle(oracles.top(), g.fd_perturbs, t.n);

  SchedulerOptions opts;
  opts.seed = g.seed;
  opts.max_steps = t.max_steps;
  opts.record_run = false;

  // Delivery genes are consumed one per live-process step, in step order.
  std::size_t gene_cursor = 0;
  if (!g.deliveries.empty()) {
    opts.inject_delivery = [&g, &gene_cursor](Pid, Time, std::size_t) {
      const std::size_t i = gene_cursor++;
      return i < g.deliveries.size() ? static_cast<int>(g.deliveries[i])
                                     : kInjectDefer;
    };
  }

  ExecutionResult result;

  // Coverage: complete state of the stepping automaton, hashed with the
  // model checker's double-mix and salted by the process id.
  ByteWriter scratch;
  if (eopts.collect_coverage) {
    opts.on_step = [&result, &scratch](
                       const StepRecord& rec,
                       const std::vector<std::unique_ptr<Automaton>>& autos) {
      const Automaton& a = *autos[static_cast<std::size_t>(rec.p)];
      scratch.reset();
      if (a.save_state(scratch)) {
        result.state_keys.push_back(
            process_state_key(rec.p, state_key128(scratch.buffer())));
      }
    };
  }

  trace::RecorderOptions ro;
  if (!eopts.full_trace) {
    // Decides only: the divergence signal needs nothing else, and decide
    // events are rare, so tracing every execution stays near free.
    ro.steps = ro.oracle_queries = ro.sends = ro.delivers = false;
  }
  trace::TraceRecorder recorder(ro);
  recorder.begin_run(fp, artifact_of(g),
                     exp::expect_name(exp::expectation(t.algo)));
  opts.trace = &recorder;

  result.stats =
      run_consensus(fp, oracle, consensus_factory_of(t.algo, t.n, g.seed),
                    mixed_proposals(t.n), opts);

  const ConsensusVerdict& v = result.stats.verdict;
  recorder.annotate(trace::verdict_json(v));
  result.trace_jsonl = recorder.jsonl();

  std::sort(result.state_keys.begin(), result.state_keys.end());
  result.state_keys.erase(
      std::unique(result.state_keys.begin(), result.state_keys.end()),
      result.state_keys.end());

  if (const auto parsed = trace::parse_trace(result.trace_jsonl)) {
    result.divergence_shape = shape_of(trace::find_divergence(*parsed));
  }

  if (!v.validity) {
    result.violation = "validity";
  } else if (!v.nonuniform_agreement) {
    result.violation = "nonuniform";
  } else if (!v.uniform_agreement &&
             exp::expectation(t.algo) == exp::Expect::kUniform) {
    result.violation = "uniform";
  }
  return result;
}

}  // namespace nucon::fuzz
