#include "prof/trend.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/minijson.hpp"

namespace nucon::prof {
namespace {

using util::double_json;
using util::json_escape;
using util::JsonValue;

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// A table cell parses as a metric when the whole cell is one finite
/// number (the renderers print "123", "0.973", "1234567"...).
std::optional<double> numeric_cell(const std::string& cell) {
  if (cell.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

void extract_tables(const JsonValue& doc, TrendEntry& out) {
  const JsonValue* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_array()) return;
  for (const JsonValue& table : tables->array) {
    const auto title = table.string_at("title");
    const JsonValue* headers = table.find("headers");
    const JsonValue* rows = table.find("rows");
    if (!title || headers == nullptr || !headers->is_array() ||
        rows == nullptr || !rows->is_array()) {
      continue;
    }
    for (const JsonValue& row : rows->array) {
      if (!row.is_array() || row.array.empty() ||
          !row.array[0].is_string()) {
        continue;
      }
      const std::string& row_key = row.array[0].string;
      for (std::size_t j = 1;
           j < row.array.size() && j < headers->array.size(); ++j) {
        if (!row.array[j].is_string() || !headers->array[j].is_string()) {
          continue;
        }
        const auto v = numeric_cell(row.array[j].string);
        if (!v) continue;
        out.metrics["table:" + *title + ":" + row_key + ":" +
                    headers->array[j].string] = *v;
      }
    }
  }
}

void extract_sweeps(const JsonValue& doc, TrendEntry& out) {
  const JsonValue* sweeps = doc.find("sweeps");
  if (sweeps == nullptr || !sweeps->is_array()) return;
  for (const JsonValue& sweep : sweeps->array) {
    const auto name = sweep.string_at("name");
    if (!name) continue;
    if (const auto sps = sweep.number_at("steps_per_second")) {
      out.metrics["sweep:" + *name + ":steps_per_second"] = *sps;
    }
    if (const auto wall = sweep.number_at("wall_seconds")) {
      out.metrics["sweep:" + *name + ":wall_seconds"] = *wall;
    }
  }
}

void extract_profiles(const JsonValue& doc, TrendEntry& out) {
  const JsonValue* profiles = doc.find("profiles");
  if (profiles == nullptr || !profiles->is_array()) return;
  for (const JsonValue& profile : profiles->array) {
    const auto name = profile.string_at("name");
    if (!name) continue;
    if (const auto ns = profile.number_at("ns_per_step")) {
      out.metrics["profile:" + *name + ":ns_per_step"] = *ns;
    }
    if (const auto cov = profile.number_at("covered_fraction")) {
      out.metrics["profile:" + *name + ":covered_fraction"] = *cov;
    }
    const JsonValue* phases = profile.find("phases");
    if (phases == nullptr || !phases->is_array()) continue;
    for (const JsonValue& phase : phases->array) {
      const auto pname = phase.string_at("phase");
      const auto ns = phase.number_at("ns_per_call");
      if (!pname || !ns) continue;
      out.metrics["profile:" + *name + ":" + *pname + ":ns_per_call"] = *ns;
    }
  }
}

void extract_timings(const JsonValue& doc, TrendEntry& out) {
  const JsonValue* timings = doc.find("timings");
  if (timings == nullptr || !timings->is_object()) return;
  for (const auto& [key, value] : timings->members) {
    if (value.is_number()) out.metrics["timing:" + key] = value.number;
  }
}

}  // namespace

Direction direction_of(const std::string& key) {
  // covered_fraction is a health indicator, not a speed; counts and
  // ratios stay informational too. Durations before rates: "wall_seconds"
  // must not classify as a rate.
  if (contains(key, "covered_fraction") || contains(key, "reduction")) {
    return Direction::kInformational;
  }
  if (contains(key, "seconds") || contains(key, "ns_per_") ||
      contains(key, "ns/call") || contains(key, "ns/step") ||
      contains(key, ":wall_s") || contains(key, "ms/")) {
    return Direction::kLowerIsBetter;
  }
  if (contains(key, "per_second") || contains(key, "/s")) {
    return Direction::kHigherIsBetter;
  }
  return Direction::kInformational;
}

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kHigherIsBetter:
      return "higher";
    case Direction::kLowerIsBetter:
      return "lower";
    case Direction::kInformational:
      return "info";
  }
  return "info";
}

std::optional<TrendEntry> extract_trend(const std::string& report_json,
                                        std::string* error) {
  util::JsonParseError parse_error;
  const auto doc = util::parse_json(report_json, &parse_error);
  if (!doc) {
    if (error != nullptr) *error = parse_error.to_string();
    return std::nullopt;
  }
  if (!doc->is_object() || !doc->find("name") || !doc->find("v")) {
    if (error != nullptr) *error = "not a BENCH report document";
    return std::nullopt;
  }
  TrendEntry out;
  out.bench = doc->string_at("name").value_or("");
  extract_tables(*doc, out);
  extract_sweeps(*doc, out);
  extract_profiles(*doc, out);
  extract_timings(*doc, out);
  return out;
}

std::string ledger_line(const TrendEntry& entry) {
  std::ostringstream os;
  os << "{\"v\":1,\"bench\":\"" << json_escape(entry.bench)
     << "\",\"machine\":\"" << json_escape(entry.machine) << "\",\"sha\":\""
     << json_escape(entry.git_sha) << "\",\"at\":\""
     << json_escape(entry.recorded_at) << "\",\"metrics\":{";
  bool first = true;
  for (const auto& [key, value] : entry.metrics) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(key) << "\":" << double_json(value);
  }
  os << "}}";
  return os.str();
}

std::optional<TrendEntry> parse_ledger_line(const std::string& line,
                                            std::string* error) {
  util::JsonParseError parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc) {
    if (error != nullptr) *error = parse_error.to_string();
    return std::nullopt;
  }
  if (!doc->is_object()) {
    if (error != nullptr) *error = "ledger line is not a JSON object";
    return std::nullopt;
  }
  const auto v = doc->number_at("v");
  if (!v || *v != 1.0) {
    if (error != nullptr) *error = "unsupported ledger line version";
    return std::nullopt;
  }
  const auto bench = doc->string_at("bench");
  const JsonValue* metrics = doc->find("metrics");
  if (!bench || metrics == nullptr || !metrics->is_object()) {
    if (error != nullptr) {
      *error = "ledger line missing \"bench\" or \"metrics\"";
    }
    return std::nullopt;
  }
  TrendEntry out;
  out.bench = *bench;
  out.machine = doc->string_at("machine").value_or("");
  out.git_sha = doc->string_at("sha").value_or("");
  out.recorded_at = doc->string_at("at").value_or("");
  for (const auto& [key, value] : metrics->members) {
    if (value.is_number()) out.metrics[key] = value.number;
  }
  return out;
}

TrendDiff diff_trends(const TrendEntry& before, const TrendEntry& after,
                      double tolerance,
                      const std::map<std::string, double>& tolerance_overrides) {
  TrendDiff diff;
  // Union of keys in map (= lexicographic) order: deterministic output.
  auto ib = before.metrics.begin();
  auto ia = after.metrics.begin();
  while (ib != before.metrics.end() || ia != after.metrics.end()) {
    MetricDelta d;
    bool have_before = false;
    bool have_after = false;
    if (ia == after.metrics.end() ||
        (ib != before.metrics.end() && ib->first < ia->first)) {
      d.key = ib->first;
      d.before = ib->second;
      have_before = true;
      ++ib;
    } else if (ib == before.metrics.end() || ia->first < ib->first) {
      d.key = ia->first;
      d.after = ia->second;
      have_after = true;
      ++ia;
    } else {
      d.key = ib->first;
      d.before = ib->second;
      d.after = ia->second;
      have_before = have_after = true;
      ++ib;
      ++ia;
    }
    d.direction = direction_of(d.key);
    if (have_before && have_after && d.direction != Direction::kInformational &&
        std::isfinite(d.before) && std::isfinite(d.after) && d.before != 0.0) {
      d.compared = true;
      ++diff.compared;
      const double rel = (d.after - d.before) / d.before;
      d.gain = d.direction == Direction::kHigherIsBetter ? rel : -rel;
      const auto it = tolerance_overrides.find(d.key);
      const double tol = it != tolerance_overrides.end() ? it->second
                                                         : tolerance;
      if (d.gain < -tol) {
        d.regression = true;
        ++diff.regressions;
      } else if (d.gain > tol) {
        d.improvement = true;
        ++diff.improvements;
      }
    }
    diff.deltas.push_back(std::move(d));
  }
  return diff;
}

std::string render_trend_diff(const TrendDiff& diff, double tolerance) {
  std::ostringstream os;
  char buf[64];
  const auto fmt = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return std::string(buf);
  };
  for (const MetricDelta& d : diff.deltas) {
    if (!d.compared) continue;
    std::snprintf(buf, sizeof buf, "%+.1f%%", d.gain * 100.0);
    os << "  " << (d.regression   ? "REGRESSION "
                   : d.improvement ? "improved   "
                                   : "ok         ")
       << buf << "  " << d.key << "  (" << fmt(d.before) << " -> "
       << fmt(d.after) << ", " << direction_name(d.direction)
       << " is better)\n";
  }
  std::snprintf(buf, sizeof buf, "%.0f%%", tolerance * 100.0);
  os << "compared " << diff.compared << " metrics at tolerance " << buf
     << ": " << diff.regressions << " regression(s), " << diff.improvements
     << " improvement(s)\n";
  return os.str();
}

}  // namespace nucon::prof
