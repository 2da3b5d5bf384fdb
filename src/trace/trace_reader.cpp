#include "trace/trace_reader.hpp"

#include "trace/trace_recorder.hpp"
#include "util/minijson.hpp"

namespace nucon::trace {
namespace {

using util::JsonValue;

/// Typed reads off one parsed line. The first problem found is kept in
/// `error`; reads after it return their fallbacks, so the caller checks
/// `error` once per line.
struct Fields {
  const JsonValue& line;
  Pid n;  // process ids must lie in [0, n)
  std::string error;

  void fail(const std::string& name, const char* problem) {
    if (error.empty()) error = "\"" + name + "\" " + problem;
  }

  std::optional<std::int64_t> int64(const JsonValue* v, const char* name) {
    if (v == nullptr) return std::nullopt;
    const auto x = v->int64();
    if (!x) fail(name, "is not an int64");
    return x;
  }

  Pid id(const JsonValue* v, const std::string& name) {
    if (v == nullptr) return -1;
    const auto x = v->int64();
    if (!x || *x < 0 || *x >= n) {
      fail(name, "is not a process id in [0, n)");
      return -1;
    }
    return static_cast<Pid>(*x);
  }

  ProcessSet ids(const JsonValue* v, const std::string& name) {
    ProcessSet out;
    if (!v->is_array()) {
      fail(name, "is not an array of process ids");
      return out;
    }
    for (const JsonValue& member : v->array) {
      const Pid p = id(&member, name);
      if (p >= 0) out.insert(p);
    }
    return out;
  }

  /// The oracle value, rendered back exactly as the recorder writes it.
  std::string fd() {
    const JsonValue* v = line.find("fd");
    if (v == nullptr) return "";
    if (!v->is_object()) {
      fail("fd", "is not an object");
      return "";
    }
    FdValue d;
    if (const JsonValue* leader = v->find("leader")) {
      d.set_leader(id(leader, "fd.leader"));
    }
    if (const JsonValue* quorum = v->find("quorum")) {
      d.set_quorum(ids(quorum, "fd.quorum"));
    }
    if (const JsonValue* suspects = v->find("suspects")) {
      d.set_suspects(ids(suspects, "fd.suspects"));
    }
    return fd_json(d);
  }
};

std::string excerpt(const std::string& line) {
  return line.size() > 60 ? line.substr(0, 60) + "..." : line;
}

}  // namespace

std::optional<ParsedTrace> parse_trace(const std::string& jsonl,
                                       ParseError* error) {
  ParsedTrace trace;
  bool saw_meta = false;
  const auto fail = [error](std::size_t line_no, std::string message)
      -> std::optional<ParsedTrace> {
    if (error) *error = ParseError{std::move(message), line_no};
    return std::nullopt;
  };

  std::size_t begin = 0;
  std::size_t line_no = 0;
  while (begin < jsonl.size()) {
    auto end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.empty()) continue;

    util::JsonParseError json_error;
    const auto obj = util::parse_json(line, &json_error);
    if (!obj) {
      return fail(line_no, "invalid JSON (" + json_error.message +
                               "): " + excerpt(line));
    }
    const JsonValue* kind = obj->find("k");
    if (kind == nullptr || !kind->is_string()) {
      return fail(line_no, "no \"k\" (event kind) field: " + excerpt(line));
    }
    Fields f{*obj, trace.n, {}};

    if (kind->string == "meta") {
      if (saw_meta) return fail(line_no, "a second meta line");
      // Version gate first: a future schema may change every field below,
      // so nothing else on the line is trusted before the check. A meta
      // line without "v" is a pre-versioning (PR 2) trace and reads as
      // version 1, which is exactly the schema it carries.
      const JsonValue* v = obj->find("v");
      if (v != nullptr && v->int64() != kTraceSchemaVersion) {
        return fail(line_no, "unsupported trace schema version " + v->string +
                                 " (this reader supports " +
                                 std::to_string(kTraceSchemaVersion) + ")");
      }
      const auto n = obj->find("n");
      const auto correct = obj->find("correct");
      if (n == nullptr || correct == nullptr) {
        return fail(line_no, "meta line missing \"n\" or \"correct\"");
      }
      const auto n_value = n->int64();
      if (!n_value || *n_value < 1 || *n_value > kMaxProcesses) {
        return fail(line_no, "\"n\" is not in [1, " +
                                 std::to_string(kMaxProcesses) + "]");
      }
      trace.n = f.n = static_cast<Pid>(*n_value);
      trace.correct = f.ids(correct, "correct");
      trace.artifact = obj->string_at("artifact").value_or("");
      trace.expect = obj->string_at("expect").value_or("");
      if (!f.error.empty()) return fail(line_no, f.error);
      saw_meta = true;
      continue;
    }
    if (!saw_meta) return fail(line_no, "event before the meta line");

    // The recorder nests a step's sender and seq in "recv"; handmade
    // traces put them on the line itself.
    const JsonValue* recv = obj->find("recv");
    const auto sent = [&](const char* name) {
      const JsonValue* v = obj->find(name);
      return v != nullptr || recv == nullptr ? v : recv->find(name);
    };
    ParsedEvent ev;
    ev.kind = kind->string;
    ev.t = f.int64(obj->find("t"), "t").value_or(-1);
    ev.p = f.id(obj->find("p"), "p");
    ev.peer = f.id(obj->find("to"), "to");
    if (const JsonValue* from = sent("from")) ev.peer = f.id(from, "from");
    ev.seq = f.int64(sent("seq"), "seq").value_or(-1);
    ev.bytes = f.int64(obj->find("bytes"), "bytes").value_or(-1);
    ev.delay = f.int64(obj->find("delay"), "delay").value_or(-1);
    if (const JsonValue* forced = obj->find("forced")) {
      if (!forced->is_bool()) f.fail("forced", "is not a bool");
      ev.forced = forced->boolean;
    }
    ev.value = f.int64(obj->find("value"), "value");
    if (const JsonValue* hash = obj->find("hash")) {
      const auto h = hash->uint64();
      if (!h) f.fail("hash", "is not a uint64");
      ev.state_hash = h.value_or(0);
    }
    ev.fd = f.fd();
    if (!f.error.empty()) return fail(line_no, f.error);
    ev.raw = line;
    trace.events.push_back(std::move(ev));
  }

  if (!saw_meta) return fail(0, "no meta line in document");
  return trace;
}

DivergenceReport find_divergence(const ParsedTrace& trace) {
  DivergenceReport report;
  // Earliest decide overall and earliest by a correct process, per value
  // seen so far; a conflict is the first decide differing from any of them.
  struct Seen {
    Time t;
    Pid p;
    std::int64_t value;
    std::string fd;  // last oracle sample of p at its decide step
  };
  std::vector<Seen> all, correct_only;

  // Oracle events precede the decide of the same step in recorded order,
  // so "last fd seen so far" at the decide event is exactly the FD value
  // the decider sampled at (or last before) its deciding step.
  std::vector<std::string> last_fd(
      trace.n > 0 ? static_cast<std::size_t>(trace.n) : 0);
  const auto fd_of = [&last_fd](Pid p) -> const std::string& {
    static const std::string empty;
    return p >= 0 && static_cast<std::size_t>(p) < last_fd.size()
               ? last_fd[static_cast<std::size_t>(p)]
               : empty;
  };

  const auto conflict = [](const std::vector<Seen>& seen,
                           const ParsedEvent& ev) -> const Seen* {
    for (const Seen& s : seen) {
      if (s.value != *ev.value) return &s;
    }
    return nullptr;
  };
  const auto fill = [&fd_of](Divergence& d, const ParsedEvent& ev,
                             const Seen& s) {
    d.found = true;
    d.t = ev.t;
    d.p = ev.p;
    d.value = *ev.value;
    d.earlier_t = s.t;
    d.earlier_p = s.p;
    d.earlier_value = s.value;
    d.fd = fd_of(ev.p);
    d.earlier_fd = s.fd;
  };

  for (const ParsedEvent& ev : trace.events) {
    if (ev.kind == "oracle" && ev.p >= 0 &&
        static_cast<std::size_t>(ev.p) < last_fd.size()) {
      last_fd[static_cast<std::size_t>(ev.p)] = ev.fd;
      continue;
    }
    if (ev.kind != "decide" || !ev.value) continue;
    if (!report.uniform.found) {
      if (const Seen* s = conflict(all, ev)) fill(report.uniform, ev, *s);
    }
    if (!report.nonuniform.found && trace.is_correct(ev.p)) {
      if (const Seen* s = conflict(correct_only, ev)) {
        fill(report.nonuniform, ev, *s);
      }
    }
    const Seen seen{ev.t, ev.p, *ev.value, fd_of(ev.p)};
    all.push_back(seen);
    if (trace.is_correct(ev.p)) correct_only.push_back(seen);
  }
  return report;
}

}  // namespace nucon::trace
