// The one JSON reader (util/minijson) and the readers built on it:
// obs::validate_report_json, prof::parse_ledger_line and
// trace::parse_trace.
//
// Pins the nesting cap, exact integers, the number and string syntax,
// the writer helpers, the trace reader's type and id-range checks, the
// report validator's per-section members, and a hostile-input sweep:
// every prefix and every single-byte substitution of a report, a ledger
// line and a golden-trace excerpt must end in a value or an error, and a
// trace that parses must hold only in-range process ids.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/report.hpp"
#include "prof/trend.hpp"
#include "trace/trace_reader.hpp"
#include "util/minijson.hpp"

#ifndef NUCON_TEST_DATA_DIR
#error "NUCON_TEST_DATA_DIR must point at tests/golden"
#endif

namespace nucon {
namespace {

const std::string kMeta =
    R"({"k":"meta","v":1,"artifact":"a","n":3,"correct":[0,1],"crashes":[{"p":2,"at":9}],"expect":"none"})"
    "\n";

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

// --- the reader ------------------------------------------------------------

TEST(Json, DeepNestingIsAnErrorNotACrash) {
  for (const std::string& deep :
       {std::string(100'000, '['), nested_arrays(100'000)}) {
    util::JsonParseError error;
    EXPECT_FALSE(util::parse_json(deep, &error).has_value());
    EXPECT_EQ(error.line, 1u);
    EXPECT_NE(error.message.find("nesting"), std::string::npos)
        << error.message;

    EXPECT_TRUE(obs::validate_report_json(deep).has_value());

    std::string ledger_error;
    EXPECT_FALSE(prof::parse_ledger_line(deep, &ledger_error).has_value());
    EXPECT_FALSE(ledger_error.empty());

    trace::ParseError trace_error;
    EXPECT_FALSE(trace::parse_trace(kMeta + deep + "\n", &trace_error));
    EXPECT_EQ(trace_error.line, 2u);
  }
}

TEST(Json, NestingCapIsExact) {
  constexpr int kCap = util::kMaxJsonDepth;
  util::JsonParseError error;
  EXPECT_TRUE(util::parse_json(nested_arrays(kCap), &error).has_value())
      << error.to_string();
  EXPECT_FALSE(util::parse_json(nested_arrays(kCap + 1), &error));
  EXPECT_NE(error.message.find("nesting"), std::string::npos);

  // Objects count the same as arrays, and so do mixed chains.
  std::string objects;
  for (int i = 0; i < kCap; ++i) objects += i % 2 == 0 ? "{\"a\":" : "[";
  objects += "1";
  for (int i = kCap - 1; i >= 0; --i) objects += i % 2 == 0 ? "}" : "]";
  error = {};
  EXPECT_TRUE(util::parse_json(objects, &error).has_value())
      << error.to_string();
  EXPECT_FALSE(util::parse_json("[" + objects + "]", &error).has_value());
}

TEST(Json, IntegersReadBackExactly) {
  util::JsonParseError error;
  const auto doc = util::parse_json(
      "[-9223372036854775808,9223372036854775807,18446744073709551615,"
      "18446744073709551557,9223372036854775809,9223372036854775808,"
      "1.5,1e3,-0,0]",
      &error);
  ASSERT_TRUE(doc.has_value()) << error.to_string();
  const auto& a = doc->array;
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a[0].int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(a[0].uint64(), std::nullopt);
  EXPECT_EQ(a[1].int64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(a[2].uint64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a[2].int64(), std::nullopt);
  EXPECT_EQ(a[3].uint64(), 18446744073709551557ULL);
  EXPECT_EQ(a[4].uint64(), 9223372036854775809ULL);
  EXPECT_EQ(a[5].int64(), std::nullopt);
  EXPECT_EQ(a[5].uint64(), 9223372036854775808ULL);
  // A fraction or an exponent is a double, not an integer.
  EXPECT_EQ(a[6].int64(), std::nullopt);
  EXPECT_DOUBLE_EQ(a[6].number, 1.5);
  EXPECT_EQ(a[7].int64(), std::nullopt);
  EXPECT_DOUBLE_EQ(a[7].number, 1000.0);
  EXPECT_EQ(a[8].int64(), 0);
  EXPECT_EQ(a[9].uint64(), 0u);
  // Not numbers at all.
  EXPECT_EQ(util::JsonValue{}.int64(), std::nullopt);
}

TEST(Json, NumbersFollowTheJsonGrammar) {
  for (const char* good : {"0", "-0", "12", "-3.25", "1e9", "2E-3", "4.5e+1"}) {
    util::JsonParseError error;
    EXPECT_TRUE(util::parse_json(good, &error).has_value()) << good;
  }
  for (const char* bad :
       {"inf", "-inf", "nan", "+1", ".5", "1.", "01", "-", "0x10", "1e",
        "1e+", "--1", "-.5"}) {
    util::JsonParseError error;
    EXPECT_FALSE(util::parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.message.empty()) << bad;
  }
}

TEST(Json, StringsRejectRawControlBytesAndBadEscapes) {
  util::JsonParseError error;
  EXPECT_FALSE(util::parse_json("\"a\tb\"", &error).has_value());
  EXPECT_FALSE(util::parse_json("\"\\q\"", &error).has_value());
  EXPECT_FALSE(util::parse_json("\"\\u00\"", &error).has_value());
  EXPECT_FALSE(util::parse_json("\"\\u-001\"", &error).has_value());
  EXPECT_FALSE(util::parse_json("\"abc", &error).has_value());
  EXPECT_FALSE(util::parse_json("\"abc\\", &error).has_value());
}

// --- the writer helpers ----------------------------------------------------

TEST(Json, EscapedStringsReadBackByteForByte) {
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  EXPECT_EQ(util::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");

  util::JsonParseError error;
  const auto back =
      util::parse_json("\"" + util::json_escape(every_byte) + "\"", &error);
  ASSERT_TRUE(back.has_value()) << error.to_string();
  ASSERT_TRUE(back->is_string());
  EXPECT_EQ(back->string, every_byte);
}

TEST(Json, DoubleJsonIsShortestAndRoundTrips) {
  EXPECT_EQ(util::double_json(0.1), "0.1");
  EXPECT_EQ(util::double_json(2.0), "2");
  EXPECT_EQ(util::double_json(123456.75), "123456.75");
  EXPECT_EQ(util::double_json(1e300), "1e+300");
  for (double v : {1.0 / 3.0, 229218.33035593585, -0.0, 5e-324,
                   std::numeric_limits<double>::max()}) {
    util::JsonParseError error;
    const auto back = util::parse_json(util::double_json(v), &error);
    ASSERT_TRUE(back.has_value()) << util::double_json(v);
    EXPECT_EQ(back->number, v) << util::double_json(v);
  }
}

// --- the trace reader ------------------------------------------------------

std::optional<trace::ParsedTrace> parse(const std::string& jsonl,
                                        trace::ParseError* error) {
  *error = {};
  return trace::parse_trace(jsonl, error);
}

TEST(TraceReader, TruncatedLineIsRejectedWithItsLineNumber) {
  trace::ParseError error;
  EXPECT_FALSE(parse(kMeta + R"({"k":"step","t":1,"p":0})" "\n"
                             R"({"k":"decide","t":5,"p":0,"value":1)" "\n",
                     &error));
  EXPECT_EQ(error.line, 3u);
  EXPECT_FALSE(error.message.empty());
}

TEST(TraceReader, StateHashesReadBackExactly) {
  for (const std::uint64_t hash :
       {std::uint64_t{18446744073709551557ULL},
        std::uint64_t{9223372036854775809ULL},
        std::uint64_t{9223372036854775807ULL}, std::uint64_t{0}}) {
    trace::ParseError error;
    const auto t = parse(kMeta + R"({"k":"state","t":4,"p":1,"hash":)" +
                             std::to_string(hash) + "}\n",
                         &error);
    ASSERT_TRUE(t.has_value()) << error.to_string();
    ASSERT_EQ(t->events.size(), 1u);
    EXPECT_EQ(t->events[0].state_hash, hash);
  }
  trace::ParseError error;
  EXPECT_FALSE(parse(kMeta + R"({"k":"state","t":4,"p":1,"hash":-1})" "\n",
                     &error));
  EXPECT_FALSE(
      parse(kMeta + R"({"k":"state","t":4,"p":1,"hash":18446744073709551616})"
                    "\n",
            &error));
}

TEST(TraceReader, OutOfRangeIdsAreParseErrors) {
  const auto meta = [](const std::string& n, const std::string& correct) {
    return R"({"k":"meta","v":1,"n":)" + n + R"(,"correct":)" + correct +
           "}\n";
  };
  struct Case {
    std::string jsonl;
    std::size_t line;
  };
  const Case cases[] = {
      {meta("3", "[1024]"), 1},
      {meta("3", "[5000]"), 1},
      {meta("3", "[1073741824]"), 1},
      {meta("3", "[3]"), 1},
      {meta("3", "[-1]"), 1},
      {meta("0", "[]"), 1},
      {meta("1025", "[0]"), 1},
      {meta("-4", "[]"), 1},
      {kMeta + R"({"k":"step","t":1,"p":3})" "\n", 2},
      {kMeta + R"({"k":"step","t":1,"p":-2})" "\n", 2},
      {kMeta + R"({"k":"send","t":1,"p":0,"to":7,"seq":0,"bytes":3})" "\n",
       2},
      {kMeta + R"({"k":"step","t":1,"p":0,"recv":{"from":3,"seq":0}})" "\n",
       2},
      {kMeta + R"({"k":"oracle","t":1,"p":0,"fd":{"quorum":[0,3]}})" "\n",
       2},
      {kMeta + R"({"k":"oracle","t":1,"p":0,"fd":{"leader":5}})" "\n", 2},
      {kMeta + R"({"k":"oracle","t":1,"p":0,"fd":{"suspects":[1024]}})" "\n",
       2},
  };
  for (const Case& c : cases) {
    trace::ParseError error;
    EXPECT_FALSE(parse(c.jsonl, &error).has_value()) << c.jsonl;
    EXPECT_EQ(error.line, c.line) << c.jsonl;
  }
  // The bounds themselves are in range.
  trace::ParseError error;
  EXPECT_TRUE(parse(meta("1024", "[0,1023]") +
                        R"({"k":"step","t":1,"p":1023})" "\n",
                    &error))
      << error.to_string();
}

TEST(TraceReader, FieldsOfTheWrongTypeAreParseErrors) {
  for (const char* line :
       {R"({"k":"step","t":"1","p":0})", R"({"k":"step","t":1.5,"p":0})",
        R"({"k":"deliver","t":1,"p":0,"from":1,"seq":0,"forced":1})",
        R"({"k":"decide","t":1,"p":0,"value":true})",
        R"({"k":"oracle","t":1,"p":0,"fd":[0]})",
        R"({"k":"oracle","t":1,"p":0,"fd":{"quorum":3}})",
        R"({"k":7,"t":1,"p":0})", R"(["k","step"])"}) {
    trace::ParseError error;
    EXPECT_FALSE(parse(kMeta + line + "\n", &error).has_value()) << line;
    EXPECT_EQ(error.line, 2u) << line;
  }
  trace::ParseError error;
  EXPECT_FALSE(parse(R"({"k":"step","t":1,"p":0})" "\n" + kMeta, &error));
  EXPECT_EQ(error.line, 1u);
  EXPECT_FALSE(parse(kMeta + kMeta, &error));
  EXPECT_EQ(error.line, 2u);
}

TEST(TraceReader, ReadsEveryFieldTheRecorderWrites) {
  trace::ParseError error;
  const auto t = parse(
      kMeta +
          R"({"k":"step","t":2,"p":1,"recv":{"from":0,"seq":4}})" "\n"
          R"({"k":"step","t":3,"p":1,"from":2,"seq":5})" "\n"
          R"({"k":"oracle","t":3,"p":1,"fd":{"leader":0,"quorum":[0,1],"suspects":[]}})" "\n"
          R"({"k":"send","t":3,"p":1,"to":2,"seq":6,"bytes":12})" "\n"
          R"({"k":"deliver","t":9,"p":2,"from":1,"seq":6,"delay":6,"forced":true})" "\n"
          R"({"k":"decide","t":9,"p":2,"value":-7})" "\n"
          R"({"k":"verdict","termination":true})" "\n",
      &error);
  ASSERT_TRUE(t.has_value()) << error.to_string();
  EXPECT_EQ(t->n, 3);
  EXPECT_EQ(t->artifact, "a");
  EXPECT_EQ(t->expect, "none");
  EXPECT_TRUE(t->is_correct(1));
  EXPECT_FALSE(t->is_correct(2));
  ASSERT_EQ(t->events.size(), 7u);
  const auto& ev = t->events;
  EXPECT_EQ(ev[0].peer, 0);
  EXPECT_EQ(ev[0].seq, 4);
  EXPECT_EQ(ev[1].peer, 2);
  EXPECT_EQ(ev[1].seq, 5);
  EXPECT_EQ(ev[2].fd, R"({"leader":0,"quorum":[0,1],"suspects":[]})");
  EXPECT_EQ(ev[3].peer, 2);
  EXPECT_EQ(ev[3].bytes, 12);
  EXPECT_EQ(ev[4].delay, 6);
  EXPECT_TRUE(ev[4].forced);
  EXPECT_FALSE(ev[3].forced);
  EXPECT_EQ(ev[5].value, -7);
  EXPECT_EQ(ev[6].kind, "verdict");
  EXPECT_EQ(ev[6].p, -1);
  EXPECT_EQ(ev[6].t, -1);
  EXPECT_EQ(ev[6].raw, R"({"k":"verdict","termination":true})");
}

// --- the report validator --------------------------------------------------

obs::BenchReport synthetic_report() {
  obs::BenchReport r;
  r.name = "hostile";
  r.tables.push_back(obs::TableSection{
      "T1", {"algo", "steps/s"}, {{"anuc", "1000"}, {"naive", "-2.5"}}});
  obs::SweepSection s;
  s.name = "main";
  s.spec = "n=3";
  s.runs = 4;
  s.undecided = 1;
  s.metrics.counter("scheduler.steps") = 120;
  s.metrics.histogram("decide_round").add(3);
  s.failure_artifacts = {"algo=naive n=3 seed=1"};
  s.failure_trace_paths = {"t.jsonl"};
  s.wall_seconds = 0.5;
  s.steps_per_second = 240.0;
  r.sweeps.push_back(s);
  obs::ProfileSection p;
  p.name = "anuc";
  p.steps = 10;
  p.step_seconds = 0.001;
  p.ns_per_step = 100.0;
  p.covered_fraction = 0.95;
  obs::ProfilePhaseRow row;
  row.phase = "oracle_sample";
  row.calls = 10;
  row.seconds = 0.0005;
  row.ns_per_call = 50.0;
  row.share = 0.5;
  p.phases.push_back(row);
  r.profiles.push_back(p);
  r.timings["sweep:main:execute"] = 0.25;
  return r;
}

TEST(ReportValidator, EverySectionNeedsItsOwnMembers) {
  const std::string good = obs::report_json(synthetic_report());
  EXPECT_EQ(obs::validate_report_json(good), std::nullopt);

  // A section with no "counters" member, whose histogram is named
  // "counters", is still missing the member.
  obs::BenchReport r = synthetic_report();
  r.sweeps[0].metrics = {};
  r.sweeps[0].metrics.histogram("counters").add(1);
  std::string loophole = obs::report_json(r);
  const std::string member = "\"counters\":{},";
  const auto at = loophole.find(member);
  ASSERT_NE(at, std::string::npos);
  loophole.erase(at, member.size());
  ASSERT_NE(loophole.find("\"counters\":{\"count\""), std::string::npos);
  const auto problem = obs::validate_report_json(loophole);
  ASSERT_TRUE(problem.has_value()) << loophole;
  EXPECT_NE(problem->find("counters"), std::string::npos) << *problem;

  // Sections must be objects; profiles need their four members.
  EXPECT_TRUE(obs::validate_report_json(
                  R"({"v":2,"name":"x","tables":[],"sweeps":[[1]]})")
                  .has_value());
  EXPECT_TRUE(obs::validate_report_json(
                  R"({"v":2,"name":"x","tables":[],"sweeps":[],"profiles":[{"name":"p","steps":1}]})")
                  .has_value());
  EXPECT_TRUE(obs::validate_report_json(
                  R"({"v":"2","name":"x","tables":[],"sweeps":[]})")
                  .has_value());
  EXPECT_TRUE(
      obs::validate_report_json(R"([{"v":2,"name":"x","tables":[],"sweeps":[]}])")
          .has_value());
  EXPECT_EQ(obs::validate_report_json(
                R"({"v":1,"name":"","tables":[],"sweeps":[]})"),
            std::nullopt);
}

// --- hostile input ---------------------------------------------------------

/// Hands `check` every proper prefix of `doc`, then every copy of `doc`
/// with one byte replaced by one of the JSON structural bytes. Returns
/// the first input `check` refuses.
std::optional<std::string> first_refused_mutation(
    const std::string& doc, const std::function<bool(const std::string&)>& check) {
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (!check(doc.substr(0, i))) return doc.substr(0, i);
  }
  std::string mutated = doc;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    for (const char c : std::string_view("{}[]\",:-09\\")) {
      if (c == doc[i]) continue;
      mutated[i] = c;
      if (!check(mutated)) return mutated;
    }
    mutated[i] = doc[i];
  }
  return std::nullopt;
}

TEST(HostileJson, ReportMutationsEndInAValueOrAnError) {
  const std::string doc = obs::report_json(synthetic_report());
  const auto refused = first_refused_mutation(doc, [](const std::string& s) {
    util::JsonParseError error;
    const bool parsed = util::parse_json(s, &error).has_value();
    (void)obs::validate_report_json(s);
    std::string trend_error;
    const bool trended = prof::extract_trend(s, &trend_error).has_value();
    return (parsed || !error.message.empty()) &&
           (trended || !trend_error.empty());
  });
  EXPECT_EQ(refused, std::nullopt) << *refused;
}

TEST(HostileJson, LedgerLineMutationsEndInAValueOrAnError) {
  prof::TrendEntry e;
  e.bench = "hotpath";
  e.machine = "vm";
  e.git_sha = "ab73ba6";
  e.recorded_at = "2026-08-07T09:38:23Z";
  e.metrics["profile:anuc-n16:ns_per_step"] = 231864.6787935872;
  e.metrics["sweep:main:steps_per_second"] = -1.5e-7;
  e.metrics["table:H4:n=64:steps/s"] = 12;
  const auto refused =
      first_refused_mutation(prof::ledger_line(e), [](const std::string& s) {
        std::string error;
        return prof::parse_ledger_line(s, &error).has_value() ||
               !error.empty();
      });
  EXPECT_EQ(refused, std::nullopt) << *refused;
}

/// Every process id a parsed trace holds lies in [0, n), or is -1 where
/// the field is absent.
bool ids_in_range(const trace::ParsedTrace& t) {
  if (t.n < 1 || t.n > kMaxProcesses) return false;
  for (const Pid p : t.correct) {
    if (p >= t.n) return false;
  }
  const auto id_ok = [&t](Pid p) { return p >= -1 && p < t.n; };
  const auto set_ok = [&t](const util::JsonValue* v) {
    if (v == nullptr) return true;
    for (const util::JsonValue& m : v->array) {
      if (m.int64().value_or(-1) < 0 || m.int64() >= t.n) return false;
    }
    return v->is_array();
  };
  for (const trace::ParsedEvent& ev : t.events) {
    if (!id_ok(ev.p) || !id_ok(ev.peer)) return false;
    if (ev.fd.empty()) continue;
    util::JsonParseError error;
    const auto fd = util::parse_json(ev.fd, &error);
    if (!fd) return false;
    if (const util::JsonValue* leader = fd->find("leader")) {
      if (leader->int64().value_or(-1) < 0 || leader->int64() >= t.n) {
        return false;
      }
    }
    if (!set_ok(fd->find("quorum")) || !set_ok(fd->find("suspects"))) {
      return false;
    }
  }
  return true;
}

TEST(HostileJson, TraceMutationsEndInAValueOrAnError) {
  // The golden trace's first 40 lines, then its decides and verdict.
  std::ifstream f(std::string(NUCON_TEST_DATA_DIR) +
                  "/naive_contamination_n4_seed4.trace.jsonl");
  ASSERT_TRUE(f.good());
  std::string doc, tail, line;
  for (int i = 0; std::getline(f, line); ++i) {
    if (i < 40) {
      doc += line + "\n";
    } else if (line.find("\"decide\"") != std::string::npos ||
               line.find("\"verdict\"") != std::string::npos) {
      tail += line + "\n";
    }
  }
  doc += tail;
  ASSERT_NE(tail.find("\"verdict\""), std::string::npos);
  {
    trace::ParseError error;
    const auto whole = trace::parse_trace(doc, &error);
    ASSERT_TRUE(whole.has_value()) << error.to_string();
    ASSERT_TRUE(ids_in_range(*whole));
  }

  std::size_t accepted = 0;
  const auto refused = first_refused_mutation(doc, [&](const std::string& s) {
    trace::ParseError error;
    const auto t = trace::parse_trace(s, &error);
    if (!t) return !error.message.empty();
    ++accepted;
    return ids_in_range(*t);
  });
  EXPECT_EQ(refused, std::nullopt) << *refused;
  // Prefixes ending on a line boundary, and harmless digit swaps, parse.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace nucon
