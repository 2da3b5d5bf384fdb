// trace_explain: decision provenance for a JSONL run trace.
//
//   trace_explain bench-traces/e6/failure-0.trace.jsonl
//   trace_explain --json failure-0.trace.jsonl
//   trace_explain --process 2 failure-0.trace.jsonl
//
// Reconstructs the happens-before graph (obs/causal_graph.hpp) and walks
// the causal cone of the interesting decide events (obs/provenance.hpp):
// which processes' decisions and messages reached each decider, the FD
// values sampled along the way, and — for the paper's §6.3 contamination
// scenario — the first message edge that carried a faulty decider's value
// into a correct process.
//
// Which decides get explained: with --process P, the first decide of P;
// otherwise, if agreement diverged, both sides of the tightest divergence
// (nonuniform when present, else uniform); otherwise the first decide of
// the run.
//
// Flags:
//   --json        emit one JSON object per explained decide instead of text
//   --process P   explain process P's decision only
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/causal_graph.hpp"
#include "obs/provenance.hpp"
#include "util/parse_number.hpp"

using namespace nucon;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--json] [--process P] <trace.jsonl>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  Pid only_process = -1;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--process") == 0 && i + 1 < argc) {
      if (!util::parse_number(argv[++i], only_process, Pid{0},
                              kMaxProcesses - 1)) {
        std::fprintf(stderr, "invalid process id: %s\n", argv[i]);
        return usage(argv[0]);
      }
    } else if (argv[i][0] != '-' && path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << f.rdbuf();

  trace::ParseError error;
  const auto trace = trace::parse_trace(buf.str(), &error);
  if (!trace) {
    std::fprintf(stderr, "%s: malformed trace: %s\n", path.c_str(),
                 error.to_string().c_str());
    return 1;
  }

  const obs::CausalGraph graph(*trace);

  // Decide events to explain.
  std::vector<obs::EventIndex> targets;
  if (only_process >= 0) {
    const auto e = graph.first_decide_of(only_process);
    if (!e) {
      std::fprintf(stderr, "process %d never decided in this trace\n",
                   only_process);
      return 1;
    }
    targets.push_back(*e);
  } else {
    const trace::DivergenceReport report = trace::find_divergence(*trace);
    const trace::Divergence& d =
        report.nonuniform.found ? report.nonuniform : report.uniform;
    if (d.found) {
      // Both sides of the divergence: the contaminated decider is
      // whichever cone contains the faulty decision.
      if (const auto e = graph.first_decide_of(d.earlier_p)) {
        targets.push_back(*e);
      }
      if (const auto e = graph.first_decide_of(d.p)) targets.push_back(*e);
    } else if (!graph.decides().empty()) {
      targets.push_back(graph.decides().front());
    }
  }
  if (targets.empty()) {
    std::fprintf(stderr, "no decide events in %s\n", path.c_str());
    return 1;
  }

  if (!json) {
    std::printf("trace: %s\n", path.c_str());
    if (!trace->artifact.empty()) {
      std::printf("artifact: %s\n", trace->artifact.c_str());
    }
    std::printf("n=%d correct=%s expect=%s, %zu events\n\n", trace->n,
                trace->correct.to_string().c_str(),
                trace->expect.empty() ? "?" : trace->expect.c_str(),
                trace->events.size());
  }
  for (const obs::EventIndex e : targets) {
    const obs::Provenance p = obs::explain_decide(graph, e);
    if (json) {
      std::printf("%s\n", obs::provenance_json(graph, p).c_str());
    } else {
      std::printf("%s\n", obs::render_provenance(graph, p).c_str());
    }
  }
  return 0;
}
