// The hot-path profiling layer and the report writer.
//
// Pins per-phase call counts as a pure function of the run (folded into
// the metrics registry only when a collector is attached), the lap
// discipline's >= 90% cover of the step envelope, and write_report_json's
// atomic, validated write.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "exp/sweep.hpp"
#include "obs/report.hpp"
#include "prof/profiler.hpp"
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

obs::BenchReport synthetic_report() {
  obs::BenchReport r;
  r.name = "synthetic";
  obs::SweepSection s;
  s.name = "main";
  s.runs = 4;
  s.wall_seconds = 2.0;
  s.steps_per_second = 1000.0;
  r.sweeps.push_back(s);
  r.tables.push_back(obs::TableSection{
      "T1", {"algorithm", "steps/s", "note"}, {{"anuc", "1000", "ok"}}});
  prof::ProfileCollector c;
  c.record(prof::Phase::kStep, 1000);
  c.record(prof::Phase::kOracleSample, 950);
  r.profiles.push_back(obs::profile_section_of("anuc-n6", c));
  return r;
}

TEST(Report, WriteIsAtomicAndValidates) {
  const auto dir = std::filesystem::temp_directory_path() / "nucon_prof_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "BENCH_synthetic.json").string();
  ASSERT_TRUE(obs::write_report_json(synthetic_report(), path));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream f(path);
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(obs::validate_report_json(json), std::nullopt);

  // A document that fails validation is refused and no file is left
  // behind: double_json writes NaN as `nan`, which is not JSON.
  obs::BenchReport bad = synthetic_report();
  bad.timings["phase"] = std::nan("");
  const std::string bad_path = (dir / "BENCH_nan.json").string();
  EXPECT_FALSE(obs::write_report_json(bad, bad_path));
  EXPECT_FALSE(std::filesystem::exists(bad_path));
  EXPECT_FALSE(std::filesystem::exists(bad_path + ".tmp"));
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

}  // namespace
}  // namespace nucon
