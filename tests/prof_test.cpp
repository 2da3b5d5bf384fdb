// The hot-path profiling layer and the trend/regression engine.
//
// Pins the PR's acceptance criteria: per-phase call counts are a pure
// function of the run (and fold into the metrics registry only when a
// collector is attached), the lap discipline covers >= 90% of the step
// envelope, write_report_json is atomic, and nucon_bench's diff exit
// codes flip on a synthetic injected regression.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "exp/sweep.hpp"
#include "obs/report.hpp"
#include "prof/profiler.hpp"
#include "prof/trend.hpp"
#include "trace/metrics.hpp"
#include "util/minijson.hpp"

namespace nucon {
namespace {

[[maybe_unused]] exp::SweepPoint small_point() {
  exp::SweepPoint pt;
  pt.algo = exp::Algo::kAnuc;
  pt.n = 4;
  pt.faults = 1;
  pt.max_steps = 20'000;
  pt.seed = 7;
  return pt;
}

/// Counters with the prof.* entries stripped, for unprofiled comparison.
[[maybe_unused]] std::map<std::string, std::int64_t> without_prof(
    const trace::MetricsRegistry& m) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : m.counters()) {
    if (name.rfind("prof.", 0) != 0) out[name] = value;
  }
  return out;
}

TEST(Profiler, PhaseNamesAreStable) {
  EXPECT_STREQ(prof::phase_name(prof::Phase::kStep), "step");
  EXPECT_STREQ(prof::phase_name(prof::Phase::kDeliveryChoice),
               "delivery_choice");
  EXPECT_STREQ(prof::phase_name(prof::Phase::kOracleSample), "oracle_sample");
  EXPECT_STREQ(prof::phase_name(prof::Phase::kTraceHook), "trace_hook");
  EXPECT_STREQ(prof::phase_name(prof::Phase::kAutomatonStep),
               "automaton_step");
  EXPECT_STREQ(prof::phase_name(prof::Phase::kPayloadEncode),
               "payload_encode");
}

TEST(Profiler, CollectorArithmeticIsExact) {
  prof::ProfileCollector c;
  EXPECT_TRUE(c.empty());
  c.record(prof::Phase::kStep, 1000);
  c.record(prof::Phase::kDeliveryChoice, 600);
  c.record(prof::Phase::kOracleSample, 300);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.phase(prof::Phase::kStep).calls, 1);
  EXPECT_EQ(c.phase(prof::Phase::kDeliveryChoice).ticks, 600);
  // (600 + 300) / 1000 of the envelope is covered.
  EXPECT_DOUBLE_EQ(c.covered_fraction(), 0.9);

  prof::ProfileCollector d;
  d.record(prof::Phase::kStep, 1000);
  d.record(prof::Phase::kDeliveryChoice, 400);
  c.merge(d);
  EXPECT_EQ(c.phase(prof::Phase::kStep).calls, 2);
  EXPECT_EQ(c.phase(prof::Phase::kStep).ticks, 2000);
  EXPECT_EQ(c.phase(prof::Phase::kDeliveryChoice).ticks, 1000);
  // An empty collector reports zero coverage, not full coverage: "no
  // timing data" must never render as a healthy coverage=1 row (that
  // masked the H3 all-zero-ns regression).
  EXPECT_DOUBLE_EQ(prof::ProfileCollector{}.covered_fraction(), 0.0);
}

TEST(Profiler, FoldCountsIntoRegistersCallsOnly) {
  prof::ProfileCollector c;
  c.record(prof::Phase::kStep, 12345);
  c.record(prof::Phase::kTraceHook, 99);
  c.record(prof::Phase::kTraceHook, 99);
  trace::MetricsRegistry m;
  c.fold_counts_into(m);
  EXPECT_EQ(m.counter_value("prof.step.calls"), 1);
  EXPECT_EQ(m.counter_value("prof.trace_hook.calls"), 2);
  EXPECT_EQ(m.counter_value("prof.oracle_sample.calls"), 0);
}

TEST(Profiler, StepProbeLapsPartitionTheEnvelope) {
  prof::ProfileCollector c;
  prof::StepProbe probe(&c);
  probe.begin();
  probe.lap(prof::Phase::kDeliveryChoice);
  probe.lap(prof::Phase::kOracleSample);
  probe.lap(prof::Phase::kTraceHook);
  probe.lap(prof::Phase::kAutomatonStep);
  probe.lap(prof::Phase::kPayloadEncode);
  probe.lap(prof::Phase::kTraceHook);
  probe.finish();

  EXPECT_EQ(c.phase(prof::Phase::kStep).calls, 1);
  EXPECT_EQ(c.phase(prof::Phase::kTraceHook).calls, 2);
  std::int64_t inner = 0;
  for (int i = 1; i < prof::kPhaseCount; ++i) {
    inner += c.phase(static_cast<prof::Phase>(i)).ticks;
  }
  // Consecutive laps share their boundary timestamps, so the inner phases
  // can never exceed the envelope.
  EXPECT_LE(inner, c.phase(prof::Phase::kStep).ticks);
  EXPECT_GE(c.covered_fraction(), 0.0);
  EXPECT_LE(c.covered_fraction(), 1.0);
}

TEST(Profiler, NullProbeRecordsNothing) {
  prof::StepProbe probe(nullptr);
  probe.begin();
  probe.lap(prof::Phase::kDeliveryChoice);
  probe.finish();  // must not crash; nothing to assert beyond that
}

TEST(Profiler, SchedulerCallCountsMatchSteps) {
  prof::ProfileCollector profile;
  const ConsensusRunStats stats = exp::run_point(small_point(), &profile);
  const auto steps = static_cast<std::int64_t>(stats.steps);
  ASSERT_GT(steps, 0);
  EXPECT_EQ(profile.phase(prof::Phase::kStep).calls, steps);
  EXPECT_EQ(profile.phase(prof::Phase::kDeliveryChoice).calls, steps);
  EXPECT_EQ(profile.phase(prof::Phase::kOracleSample).calls, steps);
  EXPECT_EQ(profile.phase(prof::Phase::kAutomatonStep).calls, steps);
  EXPECT_EQ(profile.phase(prof::Phase::kPayloadEncode).calls, steps);
  // The bookkeeping phase is charged twice per step: record/trace before
  // the automaton, state-hash/decide/observer after it.
  EXPECT_EQ(profile.phase(prof::Phase::kTraceHook).calls, 2 * steps);
  // The deterministic fold mirrors the collector.
  EXPECT_EQ(stats.metrics.counter_value("prof.step.calls"), steps);
  EXPECT_EQ(stats.metrics.counter_value("prof.trace_hook.calls"), 2 * steps);
}

TEST(Profiler, SchedulerCoverageMeetsAcceptanceFloor) {
  prof::ProfileCollector profile;
  (void)exp::run_point(small_point(), &profile);
  // The PR's acceptance criterion: the per-phase breakdown accounts for
  // >= 90% of the step envelope. The lap discipline makes it ~100%.
  EXPECT_GE(profile.covered_fraction(), 0.9);
}

TEST(Profiler, ProfiledRunReportsNonzeroPhaseTimes) {
  // Regression guard for the H3 "ns/call prints 0 despite coverage=1"
  // bug: an unserialized rdtsc read taken after a context switch (or SMI)
  // can precede the probe's previous timestamp, and the unsigned delta
  // then wrapped to ~2^64 ticks — every later ns_per_call computation
  // drowned. The probes clamp such deltas to zero now, so a real profiled
  // run must report strictly positive time in the envelope and in every
  // phase that executes once per step.
  prof::ProfileCollector profile;
  const ConsensusRunStats stats = exp::run_point(small_point(), &profile);
  ASSERT_GT(stats.steps, 0u);
  EXPECT_GT(profile.ns_per_call(prof::Phase::kStep), 0.0);
  EXPECT_GT(profile.ns_per_call(prof::Phase::kAutomatonStep), 0.0);
  EXPECT_GT(profile.ns_per_call(prof::Phase::kDeliveryChoice), 0.0);
  // Coverage must also be strictly positive — an all-zero inner breakdown
  // would report 0 and fail here even if the envelope survived.
  EXPECT_GT(profile.covered_fraction(), 0.0);
  EXPECT_LE(profile.covered_fraction(), 1.0);
}

TEST(Profiler, CallCountsAreDeterministicAcrossRuns) {
  prof::ProfileCollector a;
  prof::ProfileCollector b;
  const ConsensusRunStats sa = exp::run_point(small_point(), &a);
  const ConsensusRunStats sb = exp::run_point(small_point(), &b);
  for (int i = 0; i < prof::kPhaseCount; ++i) {
    const auto ph = static_cast<prof::Phase>(i);
    EXPECT_EQ(a.phase(ph).calls, b.phase(ph).calls) << prof::phase_name(ph);
  }
  EXPECT_EQ(sa.metrics, sb.metrics);
}

TEST(Profiler, AttachingACollectorDoesNotPerturbTheRun) {
  prof::ProfileCollector profile;
  const ConsensusRunStats with = exp::run_point(small_point(), &profile);
  const ConsensusRunStats without = exp::run_point(small_point());
  EXPECT_EQ(without.metrics.counter_value("prof.step.calls"), 0);
  EXPECT_EQ(without_prof(with.metrics), without_prof(without.metrics));
  EXPECT_EQ(with.steps, without.steps);
  EXPECT_EQ(with.messages_sent, without.messages_sent);
}

TEST(Profiler, ReusedCollectorChargesOnlyThisRunsCalls) {
  prof::ProfileCollector profile;
  const ConsensusRunStats first = exp::run_point(small_point(), &profile);
  const ConsensusRunStats second = exp::run_point(small_point(), &profile);
  // Same point, same seed: the delta fold must charge each run the same
  // count even though the collector accumulated both.
  EXPECT_EQ(first.metrics.counter_value("prof.step.calls"),
            second.metrics.counter_value("prof.step.calls"));
  EXPECT_EQ(profile.phase(prof::Phase::kStep).calls,
            2 * first.metrics.counter_value("prof.step.calls"));
}

TEST(Profiler, SweepProfileIsThreadCountInvariant) {
  exp::SweepGrid grid;
  grid.algos = {exp::Algo::kAnuc, exp::Algo::kCt};
  grid.ns = {4};
  grid.seed_count = 2;
  grid.max_steps = 10'000;

  exp::SweepRunner serial(1);
  serial.set_profiling(true);
  exp::SweepRunner wide(8);
  wide.set_profiling(true);
  const exp::SweepResult a = serial.run(grid);
  const exp::SweepResult b = wide.run(grid);

  ASSERT_FALSE(a.profile.empty());
  for (int i = 0; i < prof::kPhaseCount; ++i) {
    const auto ph = static_cast<prof::Phase>(i);
    EXPECT_EQ(a.profile.phase(ph).calls, b.profile.phase(ph).calls)
        << prof::phase_name(ph);
  }
  EXPECT_EQ(a.aggregate.metrics, b.aggregate.metrics);
  EXPECT_GT(
      a.aggregate.metrics.counter_value("prof.step.calls"), 0);
}

TEST(Trend, DirectionClassification) {
  using prof::Direction;
  EXPECT_EQ(prof::direction_of("sweep:hotpath:steps_per_second"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(prof::direction_of("table:H1: baseline:anuc:steps/s"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(prof::direction_of("sweep:hotpath:wall_seconds"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(prof::direction_of("profile:anuc-n64:ns_per_step"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(prof::direction_of("profile:anuc-n64:oracle_sample:ns_per_call"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(prof::direction_of("timing:sweep:hotpath-sweep:execute"),
            Direction::kInformational);
  EXPECT_EQ(prof::direction_of("profile:anuc-n64:covered_fraction"),
            Direction::kInformational);
  EXPECT_EQ(prof::direction_of("table:H1: baseline:anuc:reduction"),
            Direction::kInformational);
  EXPECT_EQ(prof::direction_of("table:H1: baseline:anuc:steps"),
            Direction::kInformational);
}

obs::BenchReport synthetic_report(double steps_per_second) {
  obs::BenchReport r;
  r.name = "synthetic";
  obs::SweepSection s;
  s.name = "main";
  s.runs = 4;
  s.wall_seconds = 2.0;
  s.steps_per_second = steps_per_second;
  r.sweeps.push_back(s);
  r.tables.push_back(obs::TableSection{
      "T1", {"algorithm", "steps/s", "note"}, {{"anuc", "1000", "ok"}}});
  prof::ProfileCollector c;
  c.record(prof::Phase::kStep, 1000);
  c.record(prof::Phase::kOracleSample, 950);
  r.profiles.push_back(obs::profile_section_of("anuc-n6", c));
  return r;
}

TEST(Trend, ExtractsMetricsFromReportJson) {
  const std::string json =
      obs::report_json(synthetic_report(5000.0), /*include_timings=*/true);
  ASSERT_EQ(obs::validate_report_json(json), std::nullopt) << json;
  std::string error;
  const auto entry = prof::extract_trend(json, &error);
  ASSERT_TRUE(entry.has_value()) << error;
  EXPECT_EQ(entry->bench, "synthetic");
  EXPECT_DOUBLE_EQ(entry->metrics.at("sweep:main:steps_per_second"), 5000.0);
  EXPECT_DOUBLE_EQ(entry->metrics.at("sweep:main:wall_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(entry->metrics.at("table:T1:anuc:steps/s"), 1000.0);
  EXPECT_EQ(entry->metrics.count("table:T1:anuc:note"), 0u);
  EXPECT_GT(entry->metrics.at("profile:anuc-n6:ns_per_step"), 0.0);
  EXPECT_GT(
      entry->metrics.at("profile:anuc-n6:oracle_sample:ns_per_call"), 0.0);
  // Timing-free documents carry no wall-clock metrics at all.
  const auto bare = prof::extract_trend(
      obs::report_json(synthetic_report(5000.0), /*include_timings=*/false),
      &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_EQ(bare->metrics.count("sweep:main:steps_per_second"), 0u);
  EXPECT_EQ(bare->metrics.count("profile:anuc-n6:ns_per_step"), 0u);
}

TEST(Trend, LedgerLineRoundTrips) {
  prof::TrendEntry e;
  e.bench = "hotpath";
  e.machine = "box-1";
  e.git_sha = "abc1234";
  e.recorded_at = "2026-08-07T12:00:00Z";
  e.metrics["sweep:main:steps_per_second"] = 123456.75;
  e.metrics["profile:anuc-n64:ns_per_step"] = 812.5;
  const std::string line = prof::ledger_line(e);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  std::string error;
  const auto back = prof::parse_ledger_line(line, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->bench, e.bench);
  EXPECT_EQ(back->machine, e.machine);
  EXPECT_EQ(back->git_sha, e.git_sha);
  EXPECT_EQ(back->recorded_at, e.recorded_at);
  EXPECT_EQ(back->metrics, e.metrics);

  EXPECT_FALSE(prof::parse_ledger_line("{not json", &error).has_value());
  EXPECT_FALSE(prof::parse_ledger_line("{\"v\":99}", &error).has_value());
}

TEST(Trend, DiffFlagsSyntheticRegression) {
  prof::TrendEntry before;
  before.metrics["sweep:main:steps_per_second"] = 1000.0;
  before.metrics["sweep:main:wall_seconds"] = 1.0;
  before.metrics["timing:whatever"] = 5.0;

  // 30% throughput drop at 25% tolerance: regression.
  prof::TrendEntry after = before;
  after.metrics["sweep:main:steps_per_second"] = 700.0;
  prof::TrendDiff d = prof::diff_trends(before, after, 0.25);
  EXPECT_TRUE(d.has_regression());
  EXPECT_EQ(d.regressions, 1);

  // 10% drop: within tolerance.
  after.metrics["sweep:main:steps_per_second"] = 900.0;
  d = prof::diff_trends(before, after, 0.25);
  EXPECT_FALSE(d.has_regression());

  // Lower-is-better: wall clock growing 50% regresses...
  after.metrics["sweep:main:steps_per_second"] = 1000.0;
  after.metrics["sweep:main:wall_seconds"] = 1.5;
  d = prof::diff_trends(before, after, 0.25);
  EXPECT_TRUE(d.has_regression());
  // ...unless an override loosens that one key.
  d = prof::diff_trends(before, after, 0.25,
                        {{"sweep:main:wall_seconds", 0.6}});
  EXPECT_FALSE(d.has_regression());

  // Informational metrics never regress; one-sided metrics stay
  // uncompared rather than failing the diff.
  after.metrics["timing:whatever"] = 50.0;
  after.metrics["sweep:other:steps_per_second"] = 1.0;
  after.metrics["sweep:main:wall_seconds"] = 1.0;
  d = prof::diff_trends(before, after, 0.25);
  EXPECT_FALSE(d.has_regression());
  EXPECT_EQ(d.compared, 2);
}

TEST(Report, WriteIsAtomicAndValidates) {
  const auto dir = std::filesystem::temp_directory_path() / "nucon_prof_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "BENCH_synthetic.json").string();
  ASSERT_TRUE(obs::write_report_json(synthetic_report(1.0), path));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream f(path);
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(obs::validate_report_json(json), std::nullopt);
  std::filesystem::remove_all(dir);
}

TEST(Minijson, ReportsLineNumbers) {
  util::JsonParseError error;
  EXPECT_FALSE(util::parse_json("{\n  \"a\": }", &error).has_value());
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.to_string().find("line 2"), std::string::npos);

  const auto doc = util::parse_json(
      "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": true}}", &error);
  ASSERT_TRUE(doc.has_value()) << error.to_string();
  ASSERT_NE(doc->find("a"), nullptr);
  ASSERT_EQ(doc->find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc->find("a")->array[1].number, 2.5);
  ASSERT_NE(doc->find("b"), nullptr);
  EXPECT_TRUE(doc->find("b")->find("c")->boolean);
  // Trailing bytes after the document are a parse error, not silence.
  EXPECT_FALSE(util::parse_json("{} trailing", &error).has_value());
}

#ifndef NUCON_HISTORY_LEDGER
#error "NUCON_HISTORY_LEDGER must point at bench/history/ledger.jsonl"
#endif

// The committed ledger is read back by `nucon_bench check` on every run of
// bench-trend: each of its lines must parse, and re-emitting the parsed
// entry must give the line back byte for byte.
TEST(Trend, CommittedLedgerRoundTripsByteForByte) {
  std::ifstream f(NUCON_HISTORY_LEDGER, std::ios::binary);
  ASSERT_TRUE(f.good()) << NUCON_HISTORY_LEDGER;
  std::string line;
  int lines = 0;
  while (std::getline(f, line)) {
    ++lines;
    std::string error;
    const auto entry = prof::parse_ledger_line(line, &error);
    ASSERT_TRUE(entry.has_value()) << "line " << lines << ": " << error;
    EXPECT_EQ(prof::ledger_line(*entry), line) << "line " << lines;
  }
  EXPECT_GT(lines, 0);
}

#ifdef NUCON_BENCH_BIN

int exit_code_of(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(NuconBench, DiffExitCodesFlipOnInjectedRegression) {
  const auto dir = std::filesystem::temp_directory_path() / "nucon_bench_test";
  std::filesystem::create_directories(dir);
  const std::string before = (dir / "before.json").string();
  const std::string good = (dir / "good.json").string();
  const std::string bad = (dir / "bad.json").string();
  ASSERT_TRUE(obs::write_report_json(synthetic_report(1000.0), before));
  ASSERT_TRUE(obs::write_report_json(synthetic_report(950.0), good));
  // The injected regression: throughput halved.
  ASSERT_TRUE(obs::write_report_json(synthetic_report(500.0), bad));

  const std::string bin = NUCON_BENCH_BIN;
  EXPECT_EQ(exit_code_of(bin + " diff " + before + " " + good +
                         " --tolerance 0.25 > /dev/null"),
            0);
  EXPECT_EQ(exit_code_of(bin + " diff " + before + " " + bad +
                         " --tolerance 0.25 > /dev/null"),
            1);
  EXPECT_EQ(exit_code_of(bin + " diff " + before + " /nonexistent.json " +
                         " 2> /dev/null"),
            2);

  // record + check over a tiny history: the regression gates, then
  // --informational downgrades it to exit 0.
  const std::string hist = (dir / "history").string();
  EXPECT_EQ(exit_code_of(bin + " record --history " + hist +
                         " --sha a --machine m " + before + " > /dev/null"),
            0);
  EXPECT_EQ(exit_code_of(bin + " record --history " + hist +
                         " --sha b --machine m " + bad + " > /dev/null"),
            0);
  EXPECT_EQ(exit_code_of(bin + " check --history " + hist + " > /dev/null"),
            1);
  EXPECT_EQ(exit_code_of(bin + " check --history " + hist +
                         " --informational > /dev/null"),
            0);

  const std::string manifest = (dir / "BENCH_manifest.json").string();
  EXPECT_EQ(exit_code_of(bin + " manifest --out " + manifest + " " + before +
                         " " + good + " > /dev/null"),
            0);
  EXPECT_TRUE(std::filesystem::exists(manifest));
  std::filesystem::remove_all(dir);
}

// Report names go into the manifest escaped, so a name with a quote or a
// backslash still yields a manifest that parses.
TEST(NuconBench, ManifestEscapesReportNames) {
  const auto dir =
      std::filesystem::temp_directory_path() / "nucon_bench_manifest_test";
  std::filesystem::create_directories(dir);
  const std::string report = (dir / "BENCH_odd.json").string();
  obs::BenchReport r = synthetic_report(1000.0);
  r.name = "a\"b\\c";
  ASSERT_TRUE(obs::write_report_json(r, report));

  const std::string manifest = (dir / "BENCH_manifest.json").string();
  ASSERT_EQ(exit_code_of(std::string(NUCON_BENCH_BIN) + " manifest --out " +
                         manifest + " " + report + " > /dev/null"),
            0);
  std::ifstream f(manifest, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  util::JsonParseError error;
  const auto doc = util::parse_json(text, &error);
  ASSERT_TRUE(doc.has_value()) << error.to_string() << "\n" << text;
  const util::JsonValue* reports = doc->find("reports");
  ASSERT_TRUE(reports != nullptr && reports->is_array() &&
              reports->array.size() == 1)
      << text;
  EXPECT_EQ(reports->array[0].string_at("bench"), r.name);
  EXPECT_EQ(reports->array[0].string_at("file"), "BENCH_odd.json");
  std::filesystem::remove_all(dir);
}

#endif  // NUCON_BENCH_BIN

}  // namespace
}  // namespace nucon
