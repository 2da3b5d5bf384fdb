// The repo's one JSON reader, plus the two helpers every JSON writer uses.
//
// Two kinds of document are read back: BENCH_*.json reports
// (obs::validate_report_json, which write_report_json also runs on every
// report before it lands) and the JSONL traces (trace::parse_trace, one
// document per line). Both go through parse_json, so both get the same
// syntax check, the same nesting cap and the same exact integers:
//   - objects keep insertion order (the writers emit deterministically
//     ordered documents, and readers see members in that order);
//   - numbers are doubles, and each keeps its token text, so int64() and
//     uint64() read integers back exactly over their whole ranges;
//   - nesting deeper than kMaxJsonDepth is an error, never a stack
//     overflow, so hostile bytes cannot crash a reader;
//   - errors carry the 1-based line number of the offending byte, so the
//     CLIs print the same "line N: message" diagnostics as trace_reader's
//     ParseError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace nucon::util {

/// Containers open at once, at most. The deepest document the repo writes
/// nests 5 (a histogram inside a sweep section, or a table row).
inline constexpr int kMaxJsonDepth = 64;

struct JsonValue;

/// Insertion-ordered object entries; lookups are linear (documents here
/// are small: a handful of keys per object).
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's content; a number's token as written.
  std::string string;
  std::vector<JsonValue> array;
  JsonMembers members;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }

  /// The exact value of an integer token (no fraction or exponent) that
  /// fits the type; nullopt otherwise.
  [[nodiscard]] std::optional<std::int64_t> int64() const;
  [[nodiscard]] std::optional<std::uint64_t> uint64() const;

  /// Member lookup on an object (nullptr when absent or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// A string member's content; nullopt when absent or not a string.
  [[nodiscard]] std::optional<std::string> string_at(
      const std::string& key) const;
};

/// Parse failure: message plus the 1-based line of the offending byte
/// (mirrors trace::ParseError so the CLIs print uniform diagnostics).
struct JsonParseError {
  std::string message;
  std::size_t line = 0;

  [[nodiscard]] std::string to_string() const {
    return line == 0 ? message
                     : "line " + std::to_string(line) + ": " + message;
  }
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// bytes rejected). Returns nullopt on failure; `error`, when non-null,
/// receives the diagnostic.
[[nodiscard]] std::optional<JsonValue> parse_json(const std::string& text,
                                                  JsonParseError* error);

/// `s` as the inside of a JSON string literal: quotes, backslashes and
/// control bytes escaped, every other byte as is.
[[nodiscard]] std::string json_escape(const std::string& s);

/// The shortest decimal rendering of `v` that reads back as `v`.
[[nodiscard]] std::string double_json(double v);

}  // namespace nucon::util
