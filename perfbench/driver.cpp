// nucon performance benchmark: the in-process driver.
//
// One process runs one workload's operations closed-loop, one at a time,
// and prints a single JSON document with the raw per-operation samples.
// perfbench/run.py spawns fresh processes of it (so no process inherits
// another's peak memory or thread-local caches), turns the samples into
// the metrics BENCHMARK.json names, and checks every output.
//
//   nucon_perfbench --workload W --seed-base N --ops K [--traced]
//
// A process runs one untimed warm-up operation at a fixed seed, then K
// timed operations at seeds N, N+1, ..., N+K-1.
//
// Untraced operations call the library's public entry points and nothing
// else: exp::run_point for the simulation workloads, model_check_consensus
// and fuzz::run_fuzz for `verify`. A traced operation (--traced) first runs
// the untraced operation as its reference, then rebuilds the point from the
// same public pieces run_point uses, wraps the oracle stack and every
// automaton in forwarding decorators that count and time each call, and
// requires the traced result to equal the reference (fidelity). The
// decorators live in this file: tracing changes nothing under src/.
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algo/harness.hpp"
#include "check/model_checker.hpp"
#include "core/anuc.hpp"
#include "core/stacked_nuc.hpp"
#include "exp/sweep.hpp"
#include "fuzz/engine.hpp"
#include "sim/run.hpp"

namespace {

using namespace nucon;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

/// Seed of every process's warm-up operation. Fixed, so set-up time does not
/// depend on the seed base.
constexpr std::uint64_t kWarmupSeed = 4'000'000'007ULL;

/// The fuzz campaign: a fixed master seed, a fixed budget and a per-execution
/// step cap of 5000 instead of the default 20000. At the default cap a
/// campaign's cost sat in a few executions that never decide and run to the
/// cap, and swung 200x across master seeds; at 5000 the same executions
/// still hash every step's large state for coverage, and master seed 2
/// spends about 1 s on 256 executions, repeatably.
constexpr std::uint64_t kFuzzMasterSeed = 2;
constexpr std::size_t kFuzzExecs = 256;
constexpr std::int64_t kFuzzMaxSteps = 5000;
/// Model-checker search depth: exhaustive at this depth in about a second.
constexpr int kMcDepth = 10;
/// Worker threads of the verify workload (the machine has 4 cores).
constexpr unsigned kVerifyThreads = 2;

/// The point a simulation workload runs at `seed`; nullopt for `verify`.
std::optional<exp::SweepPoint> sim_point(const std::string& workload,
                                         std::uint64_t seed) {
  exp::SweepPoint pt;
  pt.faults = 1;
  pt.seed = seed;
  if (workload == "anuc-stable") {
    // The H4 post-GST regime: one quorum window spans the whole budget, so
    // each process's quorum flips once, at stabilization.
    pt.algo = exp::Algo::kAnuc;
    pt.n = 128;
    pt.max_steps = 40LL * pt.n * pt.n;
    pt.hold = pt.max_steps;
  } else if (workload == "anuc-churn") {
    // Default hold=8: quorums are redrawn every 8 ticks for ever. n=12, not
    // 16: an n=16 instance costs about 1.4 s and varies 2x across seeds, so
    // a run held too few of them for a steady median; n=12 costs ~0.13 s.
    pt.algo = exp::Algo::kAnuc;
    pt.n = 12;
  } else if (workload == "stacked") {
    pt.algo = exp::Algo::kStacked;
    pt.n = 6;
  } else {
    return std::nullopt;
  }
  return pt;
}

/// The §6.3 split-quorum history of bench_model's reference configuration:
/// 0 and 1 share quorum {0,1} under leader 0; 2 sits behind {2} and trusts
/// itself.
FdValue split_quorum_fd(Pid p, int /*own_step*/) {
  FdValue v =
      FdValue::of_quorum(p < 2 ? ProcessSet{0, 1} : ProcessSet::single(2));
  v.set_leader(p < 2 ? 0 : 2);
  return v;
}

McOptions mc_options(int depth) {
  McOptions o;
  o.n = 3;
  o.make = make_anuc(3);
  o.proposals = {0, 0, 1};
  o.fd = split_quorum_fd;
  o.max_depth = depth;
  o.max_states = 100'000'000;  // exhaustion, not the budget, ends a search
  o.threads = kVerifyThreads;
  return o;
}

fuzz::EngineOptions fuzz_options(std::size_t execs) {
  fuzz::EngineOptions e;
  e.target.algo = exp::Algo::kAnuc;
  e.target.n = 4;
  e.target.max_steps = kFuzzMaxSteps;
  e.master_seed = kFuzzMasterSeed;
  e.max_execs = execs;
  e.threads = kVerifyThreads;
  e.minimize = false;
  return e;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic() reads,
/// so run.py can measure set-up from before it spawned this process.
double monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The machine-speed ruler: fixed CPU and memory work that runs no nucon
/// code (sorting pseudo-random keys and hashing them into an open-addressing
/// table; ~21 ms on a 2.1 GHz Xeon VM). On a shared host the machine's speed
/// drifts by +-15% and more, on time scales from a second to minutes, and a
/// ruler's time tracks that drift (a first version correlated at 0.93 with
/// an A_nuc instance in 8-second bins). The driver runs a pass before and
/// after the warm-up and between operations; run.py scales each operation's
/// time by the passes around it. The buffers are allocated once, so a pass
/// calls no malloc and does not depend on the workload's heap (a ruler that
/// allocated ran up to 50% slower inside anuc-stable's processes), and its
/// 3 MB working set refills quickly after the workload has evicted it.
class Ruler {
 public:
  Ruler() : keys_(1 << 18), table_(1 << 17) {}

  void measure() {
    const auto t0 = Clock::now();
    sink_ = sink_ ^ work();  // volatile: the work cannot be elided
    const double s = seconds_since(t0);
    samples_.push_back(s);
    total_ += s;
  }
  /// Index of the latest pass.
  [[nodiscard]] int last() const { return static_cast<int>(samples_.size()) - 1; }
  [[nodiscard]] double total() const { return total_; }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::uint64_t work() {
    std::uint64_t state = 42;
    const auto next = [&state] {  // splitmix64
      std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (std::uint64_t& k : keys_) k = next();
    std::sort(keys_.begin(), keys_.end());
    std::fill(table_.begin(), table_.end(), 0);
    const std::size_t mask = table_.size() - 1;
    std::uint64_t acc = keys_[keys_.size() / 2];
    for (int i = 0; i < 50'000; ++i) {
      const std::uint64_t key = next() | 1;  // 0 marks an empty slot
      std::size_t slot = key & mask;
      while (table_[slot] != 0 && table_[slot] != key) slot = (slot + 1) & mask;
      table_[slot] = key;
      acc += slot;
    }
    return acc;
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;
  std::vector<double> samples_;
  double total_ = 0.0;
};

/// Operation time between two ruler passes: often enough to follow the
/// drift, rarely enough to cost ~10% of a run at most.
constexpr double kRulerEvery = 0.25;

/// A "VmRSS:"-style field of /proc/self/status, in kB (-1 if absent).
long status_kb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(f, line)) {
    if (line.compare(0, len, field) == 0) return std::stol(line.substr(len));
  }
  return -1;
}

/// Samples the process's resident set every 2 ms, so that each operation's
/// own peak can be read; the process-wide VmHWM only ever grows. run.py
/// reports the median operation's peak: a process's VmHWM is set by the
/// largest instance it happened to draw, and on `stacked` it spread 0.1-0.2
/// across runs.
class RssSampler {
 public:
  RssSampler()
      : fd_(::open("/proc/self/statm", O_RDONLY)),
        page_kb_(::sysconf(_SC_PAGESIZE) / 1024),
        thread_([this] { loop(); }) {}
  ~RssSampler() {
    stop_ = true;
    thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Starts a new window at the current resident set.
  void reset() { peak_kb_ = current_kb(); }
  /// Peak resident set since the last reset, in kB.
  [[nodiscard]] long peak_kb() {
    raise(current_kb());
    return peak_kb_;
  }

 private:
  long current_kb() const {
    char buf[128] = {};
    if (fd_ < 0 || ::pread(fd_, buf, sizeof(buf) - 1, 0) <= 0) return -1;
    long size = 0, resident = 0;
    if (std::sscanf(buf, "%ld %ld", &size, &resident) != 2) return -1;
    return resident * page_kb_;
  }
  void raise(long kb) {
    long seen = peak_kb_;
    while (kb > seen && !peak_kb_.compare_exchange_weak(seen, kb)) {
    }
  }
  void loop() {
    while (!stop_) {
      raise(current_kb());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  const int fd_;
  const long page_kb_;
  std::atomic<long> peak_kb_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it reads
};

/// A double with all its digits.
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal JSON object writer: every value is a number, a bool, an escaped
/// string or an already-serialized JSON fragment.
class JsonObject {
 public:
  JsonObject& num(const char* k, double v) { return raw(k, json_number(v)); }
  JsonObject& integer(const char* k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObject& boolean(const char* k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonObject& text(const char* k, const std::string& v) { return raw(k, quote(v)); }
  JsonObject& raw(const char* k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(k) + ':' + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return '{' + body_ + '}'; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + '"';
  }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + ']';
}

// ---------------------------------------------------------------------------
// Tracing: spans around layer boundaries, and per-thread call counters that
// the decorators below charge.

/// One span: a timed interval at a layer boundary. `parent` indexes the
/// enclosing span (-1 for an instance), `instance` the operation.
struct Span {
  const char* name;
  double start;
  double end;
  int parent;
  int instance;
};

/// Spans stay in memory and leave the process with its result document.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name, int parent, int instance) {
    spans_.push_back({name, now(), 0.0, parent, instance});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }
  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  [[nodiscard]] std::string json() const {
    std::vector<std::string> items;
    items.reserve(spans_.size());
    for (const Span& s : spans_) {
      items.push_back(JsonObject()
                          .text("name", s.name)
                          .num("start", s.start)
                          .num("end", s.end)
                          .integer("parent", s.parent)
                          .integer("instance", s.instance)
                          .str());
    }
    return json_array(items);
  }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Calls into one layer and the time spent inside them.
struct LayerTime {
  std::int64_t calls = 0;
  std::int64_t busy_ns = 0;
};

struct ThreadTimes {
  LayerTime fd;
  LayerTime core;
};

/// One ThreadTimes per thread that ever called a decorator. The registry
/// owns them, so the totals outlive the model checker's worker threads; a
/// thread only ever writes its own slot, and totals are read after the
/// threads' work has been joined.
class TimeRegistry {
 public:
  ThreadTimes& local() {
    thread_local ThreadTimes* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<ThreadTimes>());
      mine = slots_.back().get();
    }
    return *mine;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : slots_) *s = ThreadTimes{};
  }

  [[nodiscard]] ThreadTimes total() {
    const std::lock_guard<std::mutex> lock(mu_);
    ThreadTimes t;
    for (const auto& s : slots_) {
      t.fd.calls += s->fd.calls;
      t.fd.busy_ns += s->fd.busy_ns;
      t.core.calls += s->core.calls;
      t.core.busy_ns += s->core.busy_ns;
    }
    return t;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTimes>> slots_;
};

TimeRegistry& times() {
  static TimeRegistry registry;
  return registry;
}

/// Times `f()` into `t`.
template <typename F>
decltype(auto) charge(LayerTime& t, F&& f) {
  struct Stop {
    LayerTime& t;
    Clock::time_point t0 = Clock::now();
    ~Stop() {
      t.busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0)
                       .count();
      ++t.calls;
    }
  } stop{t};
  return f();
}

/// Forwards Oracle::value, charging the fd layer.
class TimedOracle final : public Oracle {
 public:
  explicit TimedOracle(Oracle& inner) : inner_(inner) {}

  FdValue value(Pid p, Time t) override {
    return charge(times().local().fd, [&] { return inner_.value(p, t); });
  }

 private:
  Oracle& inner_;
};

/// Forwards a consensus automaton's whole interface, charging step() to the
/// core layer. Clones wrap the inner clone, so the model checker's copies
/// stay decorated.
class TimedAutomaton final : public ConsensusAutomaton {
 public:
  explicit TimedAutomaton(std::unique_ptr<ConsensusAutomaton> inner)
      : inner_(std::move(inner)) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    charge(times().local().core, [&] { inner_->step(in, d, out); });
  }
  [[nodiscard]] std::optional<Value> decision() const override {
    return inner_->decision();
  }
  [[nodiscard]] std::optional<Bytes> snapshot() const override {
    return inner_->snapshot();
  }
  [[nodiscard]] bool save_state(ByteWriter& w) const override {
    return inner_->save_state(w);
  }
  [[nodiscard]] bool restore_state(ByteReader& r) override {
    return inner_->restore_state(r);
  }

  [[nodiscard]] const ConsensusAutomaton& inner() const { return *inner_; }

 private:
  [[nodiscard]] TimedAutomaton* clone_raw() const override {
    auto copy = inner_->clone();
    return copy ? new TimedAutomaton(std::move(copy)) : nullptr;
  }

  std::unique_ptr<ConsensusAutomaton> inner_;
};

// ---------------------------------------------------------------------------
// Operations. Each returns its JSON record; a failed check appends a line
// that reproduces the failure to `failures`.

using Failures = std::vector<std::string>;

bool sim_ok(const ConsensusRunStats& s) {
  return s.all_correct_decided && s.verdict.solves_nonuniform();
}

std::string artifact_of(const exp::SweepPoint& pt) {
  return exp::ReplayArtifact{pt}.to_string();
}

/// One instance through run_point. `stats`, when given, receives the run's
/// summary (the traced operation's reference).
JsonObject sim_op(const exp::SweepPoint& pt, Failures& failures,
                  ConsensusRunStats* stats = nullptr) {
  const auto t0 = Clock::now();
  ConsensusRunStats s = exp::run_point(pt);
  const double wall = seconds_since(t0);
  const bool ok = sim_ok(s);
  if (!ok) {
    failures.push_back("point failed (" + s.verdict.detail +
                       "): " + artifact_of(pt));
  }
  const auto delivers = s.metrics.counters().find("scheduler.delivers");
  JsonObject rec;
  rec.integer("seed", static_cast<std::int64_t>(pt.seed))
      .num("wall_s", wall)
      .integer("steps", static_cast<std::int64_t>(s.steps))
      .integer("msgs", static_cast<std::int64_t>(s.messages_sent))
      .integer("bytes", static_cast<std::int64_t>(s.bytes_sent))
      .integer("delivers",
               delivers == s.metrics.counters().end() ? 0 : delivers->second)
      .boolean("ok", ok);
  if (stats != nullptr) *stats = std::move(s);
  return rec;
}

JsonObject traced_sim_op(const exp::SweepPoint& pt, int instance,
                         SpanLog& spans, Failures& failures) {
  // The untraced instance is the fidelity reference and the baseline of
  // the tracing overhead.
  ConsensusRunStats ref;
  JsonObject rec = sim_op(pt, failures, &ref);

  times().reset();
  const int inst = spans.open("instance", -1, instance);
  const int setup = spans.open("exp.setup", inst, instance);
  const FailurePattern fp = exp::failure_pattern_of(pt);
  exp::AlgoOracles oracles(pt.algo, fp, pt.stabilize, pt.faulty_mode, pt.seed,
                           nullptr, pt.hold);
  const ConsensusFactory make = exp::consensus_factory_of(pt.algo, pt.n, pt.seed);
  const std::vector<Value> proposals = exp::proposals_of(pt);
  SchedulerOptions opts;
  opts.seed = pt.seed;
  opts.max_steps = pt.max_steps;
  opts.record_run = false;  // as run_point
  TimedOracle oracle(oracles.top());
  const ConsensusFactory timed_make =
      [&make](Pid p, Value v) -> std::unique_ptr<ConsensusAutomaton> {
    return std::make_unique<TimedAutomaton>(make(p, v));
  };
  spans.close(setup);

  const PayloadCounters before = SharedBytes::counters();
  const int run = spans.open("sim.run", inst, instance);
  const SimResult sim =
      simulate_consensus(fp, oracle, timed_make, proposals, opts);
  spans.close(run);
  const PayloadCounters moved = SharedBytes::counters() - before;

  const int check = spans.open("check", inst, instance);
  const auto decisions = decisions_of(sim.automata);
  const ConsensusVerdict verdict = check_consensus(fp, proposals, decisions);
  const bool decided = all_correct_decided(fp, sim.automata);
  spans.close(check);
  spans.close(inst);
  const ThreadTimes t = times().total();

  const bool fidelity = sim.steps_taken == ref.steps &&
                        sim.messages_sent == ref.messages_sent &&
                        sim.bytes_sent == ref.bytes_sent &&
                        decisions == ref.decisions;
  if (!fidelity) {
    failures.push_back("traced run diverged from run_point: " +
                       artifact_of(pt));
  } else if (!(decided && verdict.solves_nonuniform())) {
    failures.push_back("traced point failed (" + verdict.detail +
                       "): " + artifact_of(pt));
  }

  // Layer state read after the run through the automata's public accessors.
  std::int64_t history = 0, distrust_calls = 0, distrust_hits = 0;
  std::int64_t dag_nodes = 0, dag_outputs = 0;
  for (const auto& a : sim.automata) {
    const ConsensusAutomaton& inner =
        static_cast<const TimedAutomaton&>(*a).inner();
    const Anuc* anuc = dynamic_cast<const Anuc*>(&inner);
    if (const auto* st = dynamic_cast<const StackedNuc*>(&inner)) {
      anuc = &st->consensus();
      dag_nodes += static_cast<std::int64_t>(
          st->transformation().core().dag().total_nodes());
      dag_outputs += st->transformation().outputs_produced();
    }
    if (anuc != nullptr) {
      history += static_cast<std::int64_t>(anuc->history().size());
      distrust_calls += anuc->distrust_calls();
      distrust_hits += anuc->distrust_hits();
    }
  }
  const double n = static_cast<double>(pt.n);
  rec.num("traced_wall_s", spans.duration(inst))
      .num("setup_s", spans.duration(setup))
      .num("run_s", spans.duration(run))
      .num("check_s", spans.duration(check))
      .integer("fd_calls", t.fd.calls)
      .num("fd_busy_s", static_cast<double>(t.fd.busy_ns) * 1e-9)
      .integer("core_calls", t.core.calls)
      .num("core_busy_s", static_cast<double>(t.core.busy_ns) * 1e-9)
      .num("history_entries", static_cast<double>(history) / n)
      .integer("distrust_calls", distrust_calls)
      .integer("distrust_hits", distrust_hits)
      .num("dag_nodes", static_cast<double>(dag_nodes) / n)
      .num("dag_outputs", static_cast<double>(dag_outputs) / n)
      .integer("copied_bytes", static_cast<std::int64_t>(moved.copied_bytes))
      .integer("shared_bytes", static_cast<std::int64_t>(moved.shared_bytes))
      .boolean("fidelity", fidelity);
  return rec;
}

/// Checks a model-check search and adds its fields to `rec`.
void add_search(JsonObject& rec, const McResult& r, double seconds, int depth,
                Failures& failures) {
  const bool ok = r.exhausted && !r.violation_found;
  if (!ok) {
    failures.push_back("model check (anuc n=3 split-quorum depth=" +
                       std::to_string(depth) + ") " +
                       (r.violation_found ? "found: " + r.violation
                                          : std::string("did not exhaust")));
  }
  rec.num("mc_s", seconds)
      .integer("mc_states", static_cast<std::int64_t>(r.states_explored))
      .integer("mc_deduped", static_cast<std::int64_t>(r.states_deduped))
      .integer("mc_reexpanded", static_cast<std::int64_t>(r.states_reexpanded))
      .integer("mc_por_skipped", static_cast<std::int64_t>(r.por_skipped))
      .boolean("mc_ok", ok);
}

/// Checks a fuzz campaign and adds its fields to `rec`.
void add_campaign(JsonObject& rec, const fuzz::FuzzResult& f, double seconds,
                  Failures& failures) {
  for (const fuzz::Find& find : f.finds) {
    failures.push_back("fuzz find (" + find.violation + "), genome:\n" +
                       find.genome.to_string());
  }
  rec.num("fuzz_s", seconds)
      .integer("fuzz_execs", static_cast<std::int64_t>(f.stats.execs))
      .integer("fuzz_corpus", static_cast<std::int64_t>(f.stats.corpus_size))
      .integer("fuzz_unique_states",
               static_cast<std::int64_t>(f.stats.unique_states))
      .boolean("fuzz_ok", f.finds.empty());
}

/// One verification round: an exhaustive model-check search, then a fuzz
/// campaign, each on kVerifyThreads workers.
JsonObject verify_op(int depth, std::size_t execs, Failures& failures) {
  const auto t0 = Clock::now();
  const McResult r = model_check_consensus(mc_options(depth));
  const double mc_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const fuzz::FuzzResult f = fuzz::run_fuzz(fuzz_options(execs));
  const double fuzz_s = seconds_since(t1);

  JsonObject rec;
  rec.num("wall_s", mc_s + fuzz_s);
  add_search(rec, r, mc_s, depth, failures);
  add_campaign(rec, f, fuzz_s, failures);
  return rec;
}

/// A traced round. The campaign's executions build their own oracles and
/// automata, out of the decorators' reach, so only the search is decorated
/// (per-thread counters, forwarding save_state/restore_state/clone) and the
/// campaign is one span; an untraced search first is the fidelity reference
/// and the overhead baseline.
JsonObject traced_verify_op(int instance, SpanLog& spans, Failures& failures) {
  const auto t0 = Clock::now();
  const McResult ref = model_check_consensus(mc_options(kMcDepth));
  const double untraced_mc_s = seconds_since(t0);

  times().reset();
  const int inst = spans.open("instance", -1, instance);
  const int setup = spans.open("exp.setup", inst, instance);
  McOptions mc = mc_options(kMcDepth);
  mc.make = [make = mc.make](Pid p,
                             Value v) -> std::unique_ptr<ConsensusAutomaton> {
    return std::make_unique<TimedAutomaton>(make(p, v));
  };
  mc.fd = [fd = mc.fd](Pid p, int k) {
    return charge(times().local().fd, [&] { return fd(p, k); });
  };
  const fuzz::EngineOptions fz = fuzz_options(kFuzzExecs);
  spans.close(setup);

  const int search = spans.open("check.mc", inst, instance);
  const McResult r = model_check_consensus(mc);
  spans.close(search);
  const int campaign = spans.open("fuzz.run", inst, instance);
  const fuzz::FuzzResult f = fuzz::run_fuzz(fz);
  spans.close(campaign);
  spans.close(inst);
  const ThreadTimes t = times().total();

  const bool fidelity = r == ref;
  if (!fidelity) {
    failures.push_back("traced model check diverged from the untraced one");
  }
  JsonObject rec;
  rec.num("wall_s", untraced_mc_s + spans.duration(campaign))
      .num("traced_wall_s", spans.duration(inst))
      .num("setup_s", spans.duration(setup))
      .integer("threads", kVerifyThreads)
      .integer("fd_calls", t.fd.calls)
      .num("fd_busy_s", static_cast<double>(t.fd.busy_ns) * 1e-9)
      .integer("core_calls", t.core.calls)
      .num("core_busy_s", static_cast<double>(t.core.busy_ns) * 1e-9)
      .boolean("fidelity", fidelity);
  add_search(rec, r, spans.duration(search), kMcDepth, failures);
  add_campaign(rec, f, spans.duration(campaign), failures);
  return rec;
}

std::string provenance_json() {
#ifdef NDEBUG
  constexpr bool ndebug = true;
#else
  constexpr bool ndebug = false;
#endif
  return JsonObject()
      .text("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("ndebug", ndebug)
      .text("compiler", PERFBENCH_COMPILER)
      .text("compiler_version", __VERSION__)
      .integer("hardware_threads", std::thread::hardware_concurrency())
      .str();
}

int usage() {
  std::fprintf(stderr,
               "usage: nucon_perfbench --workload "
               "anuc-stable|anuc-churn|stacked|verify --seed-base N --ops K "
               "[--traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();

  std::string workload;
  std::uint64_t seed_base = 0;
  int ops = 0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--workload" && has_value) {
        workload = argv[++i];
      } else if (a == "--seed-base" && has_value) {
        seed_base = std::stoull(argv[++i]);
      } else if (a == "--ops" && has_value) {
        ops = std::stoi(argv[++i]);
      } else if (a == "--traced") {
        traced = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const bool is_verify = workload == "verify";
  if (ops < 1 || (!is_verify && !sim_point(workload, 0))) return usage();

#ifndef NDEBUG
  // QuorumHistory cross-checks every cached query against the quadratic
  // recompute when NDEBUG is off: that build measures a different program.
  std::fprintf(stderr,
               "nucon_perfbench: built without NDEBUG (%s); refusing to "
               "measure\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  Failures failures;
  SpanLog spans(origin);
  RssSampler rss;
  Ruler ruler;
  const long rss_before_kb = status_kb("VmRSS:");
  ruler.measure();

  // Warm-up: same operation shape at a fixed seed (verify: a shallower
  // search and a smaller campaign), untimed.
  rss.reset();
  JsonObject warmup =
      is_verify ? verify_op(kMcDepth - 2, kFuzzExecs / 8, failures)
                : sim_op(*sim_point(workload, kWarmupSeed), failures);
  warmup.integer("peak_kb", rss.peak_kb());
  ruler.measure();
  const double ruler_setup_s = ruler.total();

  const double first_op_at = monotonic_now();
  std::vector<std::string> records;
  double since_ruler = 0.0;
  for (int i = 0; i < ops && failures.empty(); ++i) {
    if (since_ruler >= kRulerEvery) {
      ruler.measure();
      since_ruler = 0.0;
    }
    const auto op_started = Clock::now();
    rss.reset();
    JsonObject rec;
    if (is_verify) {
      rec = traced ? traced_verify_op(i, spans, failures)
                   : verify_op(kMcDepth, kFuzzExecs, failures);
    } else {
      const exp::SweepPoint pt =
          *sim_point(workload, seed_base + static_cast<std::uint64_t>(i));
      rec = traced ? traced_sim_op(pt, i, spans, failures)
                   : sim_op(pt, failures);
    }
    rec.integer("peak_kb", rss.peak_kb());
    // The op's time is scaled by this pass and the next one.
    rec.integer("ruler_before", ruler.last());
    records.push_back(rec.str());
    since_ruler += seconds_since(op_started);
  }
  ruler.measure();
  std::vector<std::string> ruler_items;
  for (const double s : ruler.samples()) ruler_items.push_back(json_number(s));

  std::vector<std::string> failure_items;
  for (const std::string& f : failures) failure_items.push_back(JsonObject::quote(f));
  std::printf("%s\n",
              JsonObject()
                  .text("workload", workload)
                  .integer("seed_base", static_cast<std::int64_t>(seed_base))
                  .boolean("traced", traced)
                  .num("first_op_at", first_op_at)
                  .integer("rss_before_kb", rss_before_kb)
                  .integer("rss_after_kb", status_kb("VmRSS:"))
                  .integer("hwm_kb", status_kb("VmHWM:"))
                  .raw("ruler_s", json_array(ruler_items))
                  .num("ruler_setup_s", ruler_setup_s)
                  .raw("provenance", provenance_json())
                  .raw("warmup", warmup.str())
                  .raw("ops", json_array(records))
                  .raw("spans", spans.json())
                  .raw("failures", json_array(failure_items))
                  .str()
                  .c_str());
  return failures.empty() ? 0 : 1;
}
