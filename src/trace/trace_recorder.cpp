#include "trace/trace_recorder.hpp"

#include <cstdio>

#include "util/minijson.hpp"

namespace nucon::trace {
namespace {

using util::json_escape;

std::string set_json(const ProcessSet& s) {
  std::string out = "[";
  bool first = true;
  for (Pid p : s) {
    if (!first) out += ",";
    first = false;
    out += std::to_string(p);
  }
  return out + "]";
}

}  // namespace

std::string fd_json(const FdValue& d) {
  std::string out = "{";
  const char* sep = "";
  if (d.has_leader()) {
    out += "\"leader\":" + std::to_string(d.leader());
    sep = ",";
  }
  if (d.has_quorum()) {
    out += sep;
    out += "\"quorum\":" + set_json(d.quorum());
    sep = ",";
  }
  if (d.has_suspects()) {
    out += sep;
    out += "\"suspects\":" + set_json(d.suspects());
  }
  return out + "}";
}

std::string verdict_json(const ConsensusVerdict& v) {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  return std::string("{\"k\":\"verdict\",\"termination\":") +
         flag(v.termination) + ",\"validity\":" + flag(v.validity) +
         ",\"nonuniform_agreement\":" + flag(v.nonuniform_agreement) +
         ",\"uniform_agreement\":" + flag(v.uniform_agreement) + "}";
}

void TraceRecorder::line(std::string s) {
  out_ += s;
  out_ += '\n';
  ++events_;
}

void TraceRecorder::begin_run(const FailurePattern& fp,
                              const std::string& artifact,
                              const std::string& expect) {
  std::string crashes = "[";
  bool first = true;
  for (Pid p : fp.faulty()) {
    if (!first) crashes += ",";
    first = false;
    crashes += "{\"p\":" + std::to_string(p) +
               ",\"at\":" + std::to_string(fp.crash_time(p)) + "}";
  }
  crashes += "]";
  line("{\"k\":\"meta\",\"v\":1,\"artifact\":\"" + json_escape(artifact) +
       "\",\"n\":" + std::to_string(fp.n()) + ",\"correct\":" +
       set_json(fp.correct()) + ",\"crashes\":" + crashes + ",\"expect\":\"" +
       json_escape(expect) + "\"}");
}

void TraceRecorder::on_step(const StepRecord& rec) {
  if (!opts_.steps) return;
  std::string s = "{\"k\":\"step\",\"t\":" + std::to_string(rec.t) +
                  ",\"p\":" + std::to_string(rec.p);
  if (rec.received) {
    s += ",\"recv\":{\"from\":" + std::to_string(rec.received->sender) +
         ",\"seq\":" + std::to_string(rec.received->seq) + "}";
  }
  line(s + "}");
}

void TraceRecorder::on_oracle_query(Pid p, Time t, const FdValue& d) {
  if (!opts_.oracle_queries) return;
  line("{\"k\":\"oracle\",\"t\":" + std::to_string(t) +
       ",\"p\":" + std::to_string(p) + ",\"fd\":" + fd_json(d) + "}");
}

void TraceRecorder::on_send(Pid from, const Message& m) {
  if (!opts_.sends) return;
  line("{\"k\":\"send\",\"t\":" + std::to_string(m.sent_at) +
       ",\"p\":" + std::to_string(from) + ",\"to\":" + std::to_string(m.to) +
       ",\"seq\":" + std::to_string(m.id.seq) +
       ",\"bytes\":" + std::to_string(m.payload.size()) + "}");
}

void TraceRecorder::on_deliver(Pid to, const Message& m, Time now,
                               bool forced) {
  if (!opts_.delivers) return;
  std::string s = "{\"k\":\"deliver\",\"t\":" + std::to_string(now) +
                  ",\"p\":" + std::to_string(to) +
                  ",\"from\":" + std::to_string(m.id.sender) +
                  ",\"seq\":" + std::to_string(m.id.seq) +
                  ",\"delay\":" + std::to_string(now - m.sent_at);
  if (forced) s += ",\"forced\":true";
  line(s + "}");
}

void TraceRecorder::on_state_transition(Pid p, Time t,
                                        std::uint64_t state_hash) {
  if (!opts_.state_hashes) return;
  line("{\"k\":\"state\",\"t\":" + std::to_string(t) +
       ",\"p\":" + std::to_string(p) +
       ",\"hash\":" + std::to_string(state_hash) + "}");
}

void TraceRecorder::on_decide(Pid p, Time t, Value value) {
  if (!opts_.decides) return;
  line("{\"k\":\"decide\",\"t\":" + std::to_string(t) +
       ",\"p\":" + std::to_string(p) + ",\"value\":" + std::to_string(value) +
       "}");
}

void TraceRecorder::annotate(const std::string& json_object) {
  line(json_object);
}

bool TraceRecorder::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(out_.data(), 1, out_.size(), f);
  const bool ok = written == out_.size() && std::fclose(f) == 0;
  if (!ok && written != out_.size()) std::fclose(f);
  return ok;
}

std::uint64_t state_hash_of(const Bytes& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : state) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace nucon::trace
