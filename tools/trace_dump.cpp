// trace_dump: pretty-print a JSONL run trace produced by the trace layer
// (nucon_explore --trace, or the sweep engine's failure auto-attach).
//
//   trace_dump failure-0.trace.jsonl
//   trace_dump --full --process 3 failure-0.trace.jsonl
//
// Renders the run as a per-process timeline summary and flags the first
// step at which agreement diverged — separately for the uniform flavor
// (any two deciders differ) and the nonuniform flavor (two correct
// deciders differ), the distinction the paper is about.
//
// Flags:
//   --full          dump every event chronologically after the summary
//   --process P     restrict --full to events of process P
//   --metrics       reconstruct the run's MetricsRegistry from the events
//                   (scheduler.* counters and histograms) and print it
//   --diff A B      compare two traces: report the first divergent event
//                   with the causal context of each side
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_diff.hpp"
#include "trace/metrics.hpp"
#include "trace/trace_reader.hpp"
#include "util/parse_number.hpp"

using namespace nucon;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--full] [--process P] [--metrics] <trace.jsonl>\n"
               "       %s --diff <a.jsonl> <b.jsonl>\n",
               argv0, argv0);
  return 2;
}

/// Rebuilds the deterministic run metrics the scheduler would have
/// registered, from the recorded events alone. Only the event-sourced
/// subset is recoverable (end_time and undelivered_at_end are not
/// recorded per event), so names match scheduler.* where they overlap.
trace::MetricsRegistry metrics_of(const trace::ParsedTrace& trace) {
  trace::MetricsRegistry m;
  std::int64_t& steps = m.counter("scheduler.steps");
  std::int64_t& lambda = m.counter("scheduler.lambda_steps");
  std::int64_t& delivers = m.counter("scheduler.delivers");
  std::int64_t& forced = m.counter("scheduler.forced_deliveries");
  std::int64_t& sends = m.counter("scheduler.sends");
  std::int64_t& decides = m.counter("scheduler.decides");
  trace::Histogram& delay = m.histogram("scheduler.delivery_delay");
  trace::Histogram& payload = m.histogram("scheduler.payload_bytes");
  for (const trace::ParsedEvent& ev : trace.events) {
    if (ev.kind == "step") {
      ++steps;
      if (ev.peer < 0) ++lambda;
    } else if (ev.kind == "deliver") {
      ++delivers;
      forced += ev.forced;
      delay.add(ev.delay);
    } else if (ev.kind == "send") {
      ++sends;
      payload.add(ev.bytes);
    } else if (ev.kind == "decide") {
      ++decides;
    }
  }
  return m;
}

/// Reads and parses one trace, or prints a one-line diagnostic and returns
/// nullopt (the caller exits nonzero).
std::optional<trace::ParsedTrace> load_trace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  trace::ParseError error;
  auto trace = trace::parse_trace(buf.str(), &error);
  if (!trace) {
    std::fprintf(stderr, "%s: malformed trace: %s\n", path.c_str(),
                 error.to_string().c_str());
    return std::nullopt;
  }
  return trace;
}

int run_diff(const std::string& path_a, const std::string& path_b) {
  const auto a = load_trace(path_a);
  if (!a) return 1;
  const auto b = load_trace(path_b);
  if (!b) return 1;

  const obs::TraceDiff d = obs::diff_traces(*a, *b);
  if (d.meta_differs) {
    std::printf("meta differs: A is n=%d correct=%s expect=%s, B is n=%d "
                "correct=%s expect=%s\n",
                a->n, a->correct.to_string().c_str(), a->expect.c_str(), b->n,
                b->correct.to_string().c_str(), b->expect.c_str());
  }
  if (!d.diverged) {
    std::printf("no divergence: %zu events are byte-identical\n", d.a_events);
    return 0;
  }
  std::printf("first divergent event: index %zu (of %zu in A, %zu in B)\n",
              d.event_index, d.a_events, d.b_events);
  std::printf("  A: %s\n", d.a_line.empty() ? "<end of trace>"
                                            : d.a_line.c_str());
  std::printf("  B: %s\n", d.b_line.empty() ? "<end of trace>"
                                            : d.b_line.c_str());
  const auto print_context = [](const char* label,
                                const trace::ParsedTrace& t,
                                const std::vector<obs::EventIndex>& ctx) {
    if (ctx.empty()) return;
    std::printf("causal context in %s (most recent ancestors):\n", label);
    for (const obs::EventIndex e : ctx) {
      std::printf("  [%zu] %s\n", e, t.events[e].raw.c_str());
    }
  };
  print_context("A", *a, d.a_context);
  print_context("B", *b, d.b_context);
  return 0;
}

struct ProcessSummary {
  std::int64_t steps = 0;
  std::int64_t lambda_steps = 0;
  std::int64_t delivers = 0;
  std::int64_t forced = 0;
  std::int64_t sends = 0;
  std::int64_t state_changes = 0;
  Time first_t = -1;
  Time last_t = -1;
  bool decided = false;
  Time decide_t = 0;
  std::int64_t decide_value = 0;
};

std::string render_event(const trace::ParsedEvent& ev) {
  std::ostringstream os;
  os << "t=" << ev.t << "  p" << ev.p << "  ";
  if (ev.kind == "step") {
    if (ev.peer >= 0) {
      os << "step recv(" << ev.peer << "#" << ev.seq << ")";
    } else {
      os << "step recv(lambda)";
    }
  } else if (ev.kind == "oracle") {
    os << "oracle " << ev.fd;
  } else if (ev.kind == "send") {
    os << "send -> p" << ev.peer << " #" << ev.seq << " (" << ev.bytes
       << " bytes)";
  } else if (ev.kind == "deliver") {
    os << "deliver <- p" << ev.peer << " #" << ev.seq << " (delay " << ev.delay
       << (ev.forced ? ", forced)" : ")");
  } else if (ev.kind == "state") {
    os << "state hash=" << ev.state_hash;
  } else if (ev.kind == "decide") {
    os << "DECIDE " << (ev.value ? *ev.value : 0);
  } else {
    os << ev.kind << " " << ev.raw;
  }
  return os.str();
}

void print_divergence(const char* label, const trace::Divergence& d) {
  if (!d.found) {
    std::printf("first %s-agreement divergence: none\n", label);
    return;
  }
  std::printf(
      "first %s-agreement divergence: t=%lld p%d decided %lld [fd %s], "
      "contradicting p%d's decision %lld at t=%lld [fd %s]\n",
      label, static_cast<long long>(d.t), d.p,
      static_cast<long long>(d.value),
      d.fd.empty() ? "none sampled" : d.fd.c_str(), d.earlier_p,
      static_cast<long long>(d.earlier_value),
      static_cast<long long>(d.earlier_t),
      d.earlier_fd.empty() ? "none sampled" : d.earlier_fd.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  bool metrics = false;
  Pid only_process = -1;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--process") == 0 && i + 1 < argc) {
      if (!util::parse_number(argv[++i], only_process, Pid{0},
                              kMaxProcesses - 1)) {
        std::fprintf(stderr, "invalid process id: %s\n", argv[i]);
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--diff") == 0 && i + 2 < argc) {
      return run_diff(argv[i + 1], argv[i + 2]);
    } else if (argv[i][0] != '-' && path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  const auto trace = load_trace(path);
  if (!trace) return 1;

  std::printf("trace: %s\n", path.c_str());
  if (!trace->artifact.empty()) {
    std::printf("artifact: %s\n", trace->artifact.c_str());
  }
  std::printf("n=%d correct=%s expect=%s, %zu events\n", trace->n,
              trace->correct.to_string().c_str(),
              trace->expect.empty() ? "?" : trace->expect.c_str(),
              trace->events.size());

  // Per-process timeline summary.
  std::vector<ProcessSummary> procs(static_cast<std::size_t>(
      trace->n > 0 ? trace->n : 0));
  for (const trace::ParsedEvent& ev : trace->events) {
    if (ev.p < 0 || ev.p >= trace->n) continue;
    ProcessSummary& s = procs[static_cast<std::size_t>(ev.p)];
    if (s.first_t < 0 && ev.t >= 0) s.first_t = ev.t;
    if (ev.t > s.last_t) s.last_t = ev.t;
    if (ev.kind == "step") {
      ++s.steps;
      if (ev.peer < 0) ++s.lambda_steps;
    } else if (ev.kind == "deliver") {
      ++s.delivers;
      s.forced += ev.forced;
    } else if (ev.kind == "send") {
      ++s.sends;
    } else if (ev.kind == "state") {
      ++s.state_changes;
    } else if (ev.kind == "decide" && ev.value) {
      s.decided = true;
      s.decide_t = ev.t;
      s.decide_value = *ev.value;
    }
  }
  std::printf("\nper-process timeline:\n");
  for (Pid p = 0; p < trace->n; ++p) {
    const ProcessSummary& s = procs[static_cast<std::size_t>(p)];
    std::printf(
        "  p%d (%s)  steps=%lld (lambda %lld)  recv=%lld (forced %lld)  "
        "send=%lld  active t=[%lld, %lld]",
        p, trace->is_correct(p) ? "correct" : "faulty ",
        static_cast<long long>(s.steps),
        static_cast<long long>(s.lambda_steps),
        static_cast<long long>(s.delivers), static_cast<long long>(s.forced),
        static_cast<long long>(s.sends), static_cast<long long>(s.first_t),
        static_cast<long long>(s.last_t));
    if (s.state_changes > 0) {
      std::printf("  state-changes=%lld",
                  static_cast<long long>(s.state_changes));
    }
    if (s.decided) {
      std::printf("  -> decided %lld at t=%lld",
                  static_cast<long long>(s.decide_value),
                  static_cast<long long>(s.decide_t));
    } else {
      std::printf("  -> undecided");
    }
    std::printf("\n");
  }

  std::printf("\n");
  const trace::DivergenceReport report = trace::find_divergence(*trace);
  print_divergence("uniform", report.uniform);
  print_divergence("nonuniform", report.nonuniform);
  if (report.nonuniform.found) {
    std::printf(
        "NOTE: two correct processes decided differently — this run violates "
        "even nonuniform agreement.\n");
  } else if (report.uniform.found) {
    std::printf(
        "NOTE: only uniform agreement diverged (a faulty decider is "
        "involved); nonuniform consensus permits this.\n");
  }

  if (metrics) {
    std::printf("\nmetrics (reconstructed from events):\n%s",
                metrics_of(*trace).to_string().c_str());
  }

  if (full) {
    std::printf("\nevents:\n");
    for (const trace::ParsedEvent& ev : trace->events) {
      if (only_process >= 0 && ev.p != only_process) continue;
      std::printf("  %s\n", render_event(ev).c_str());
    }
  }
  return 0;
}
