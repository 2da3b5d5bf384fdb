#include "util/minijson.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace nucon::util {
namespace {

struct Parser {
  const char* s;
  const char* begin;
  const char* end;
  JsonParseError* error;
  int depth = 0;  // containers open around s

  [[nodiscard]] std::size_t line_of(const char* at) const {
    std::size_t line = 1;
    for (const char* p = begin; p < at; ++p) {
      if (*p == '\n') ++line;
    }
    return line;
  }

  bool fail(const std::string& msg) {
    if (error != nullptr && error->message.empty()) {
      error->message = msg;
      error->line = line_of(s);
    }
    return false;
  }

  void skip_ws() {
    while (s < end && (*s == ' ' || *s == '\t' || *s == '\n' || *s == '\r')) {
      ++s;
    }
  }

  bool parse_value(JsonValue& out);

  bool parse_string(std::string& out) {
    if (s >= end || *s != '"') return fail("expected string");
    ++s;
    out.clear();
    while (s < end && *s != '"') {
      if (static_cast<unsigned char>(*s) < 0x20) {
        return fail("unescaped control byte in string");
      }
      if (*s == '\\') {
        ++s;
        if (s >= end) break;
        switch (*s) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            // The writers only escape control bytes (< 0x20); decode the
            // low byte and ignore the (always-zero) high byte.
            if (end - s < 5) return fail("truncated \\u escape");
            unsigned code = 0;
            const auto [hex_end, ec] = std::from_chars(s + 1, s + 5, code, 16);
            if (ec != std::errc() || hex_end != s + 5) {
              return fail("bad \\u escape");
            }
            out += static_cast<char>(code & 0xff);
            s += 4;
            break;
          }
          default:
            return fail("unknown escape");
        }
        ++s;
        continue;
      }
      out += *s;
      ++s;
    }
    if (s >= end) return fail("unterminated string");
    ++s;  // closing quote
    return true;
  }

  /// Advances over a run of digits; false when there is none.
  bool digits() {
    const char* first = s;
    while (s < end && *s >= '0' && *s <= '9') ++s;
    return s != first;
  }

  /// The JSON number grammar, checked within [s, end) before strtod sees
  /// the token (strtod alone also takes "inf", hex and leading '+').
  bool parse_number(JsonValue& out) {
    const char* first = s;
    if (s < end && *s == '-') ++s;
    if (s < end && *s == '0') {
      ++s;
    } else if (!digits()) {
      return fail("unexpected character");
    }
    if (s < end && *s == '.') {
      ++s;
      if (!digits()) return fail("bad number");
    }
    if (s < end && (*s == 'e' || *s == 'E')) {
      ++s;
      if (s < end && (*s == '+' || *s == '-')) ++s;
      if (!digits()) return fail("bad number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.string.assign(first, s);
    out.number = std::strtod(out.string.c_str(), nullptr);
    return true;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++s;  // '{'
    skip_ws();
    if (s < end && *s == '}') {
      ++s;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (s >= end || *s != ':') return fail("expected ':' in object");
      ++s;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (s < end && *s == ',') {
        ++s;
        continue;
      }
      if (s < end && *s == '}') {
        ++s;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++s;  // '['
    skip_ws();
    if (s < end && *s == ']') {
      ++s;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (s < end && *s == ',') {
        ++s;
        continue;
      }
      if (s < end && *s == ']') {
        ++s;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }
};

bool Parser::parse_value(JsonValue& out) {
  skip_ws();
  if (s >= end) return fail("unexpected end of document");
  switch (*s) {
    case '{':
    case '[': {
      if (depth == kMaxJsonDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                    " levels");
      }
      ++depth;
      const bool ok = *s == '{' ? parse_object(out) : parse_array(out);
      --depth;
      return ok;
    }
    case '"':
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    case 't':
      if (end - s >= 4 && std::string(s, 4) == "true") {
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        s += 4;
        return true;
      }
      return fail("bad literal");
    case 'f':
      if (end - s >= 5 && std::string(s, 5) == "false") {
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        s += 5;
        return true;
      }
      return fail("bad literal");
    case 'n':
      if (end - s >= 4 && std::string(s, 4) == "null") {
        out.kind = JsonValue::Kind::kNull;
        s += 4;
        return true;
      }
      return fail("bad literal");
    default:
      return parse_number(out);
  }
}

template <typename T>
std::optional<T> integer_of(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  const char* last = v.string.data() + v.string.size();
  T out{};
  const auto [end, ec] = std::from_chars(v.string.data(), last, out);
  if (ec != std::errc() || end != last) return std::nullopt;
  return out;
}

}  // namespace

std::optional<std::int64_t> JsonValue::int64() const {
  return integer_of<std::int64_t>(*this);
}

std::optional<std::uint64_t> JsonValue::uint64() const {
  return integer_of<std::uint64_t>(*this);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> JsonValue::number_at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number;
}

std::optional<std::string> JsonValue::string_at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->string;
}

std::optional<JsonValue> parse_json(const std::string& text,
                                    JsonParseError* error) {
  Parser p{text.data(), text.data(), text.data() + text.size(), error};
  JsonValue out;
  if (!p.parse_value(out)) return std::nullopt;
  p.skip_ws();
  if (p.s != p.end) {
    p.fail("trailing bytes after the JSON document");
    return std::nullopt;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string double_json(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

}  // namespace nucon::util
