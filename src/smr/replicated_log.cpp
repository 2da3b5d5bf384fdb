#include "smr/replicated_log.hpp"

#include <algorithm>
#include <cassert>

namespace nucon {
namespace {

constexpr std::uint8_t kFrameInner = 0;
constexpr std::uint8_t kFrameDecided = 1;
constexpr std::uint8_t kFrameSubmit = 2;

/// Proposed when a process knows no uncommitted command: committed no-ops
/// are skipped by clients and permitted by the checker.
constexpr Value kNoop = 0;

Bytes frame_decided(int instance, Value v) {
  ByteWriter w;
  w.u8(kFrameDecided);
  w.uvarint(static_cast<std::uint64_t>(instance));
  w.svarint(v);
  return w.take();
}

}  // namespace

ReplicatedLog::ReplicatedLog(Pid self, Pid n, std::vector<Value> commands,
                             ConsensusFactory engine,
                             bool trust_decided_catchup)
    : self_(self), n_(n), engine_(std::move(engine)),
      trust_decided_catchup_(trust_decided_catchup),
      pending_(commands.begin(), commands.end()) {
  assert(n_ >= 2 && self_ >= 0 && self_ < n_);
  pool_.insert(pending_.begin(), pending_.end());
}

bool ReplicatedLog::all_submitted_committed() const {
  return pending_.empty();
}

Value ReplicatedLog::next_proposal() const {
  for (Value v : pool_) {
    if (!committed_.contains(v)) return v;
  }
  return kNoop;
}

void ReplicatedLog::append_decision(Value v) {
  // Two instances can decide the same command when proposers race; every
  // replica applies the same canonical transform (second decision becomes
  // a no-op), so logs stay identical and duplicate-free.
  if (v != kNoop && committed_.contains(v)) v = kNoop;
  log_.push_back(v);
  if (v != kNoop) committed_.insert(v);
  const auto pos = std::find(pending_.begin(), pending_.end(), v);
  if (pos != pending_.end()) pending_.erase(pos);
}

void ReplicatedLog::commit(Value v, std::vector<Outgoing>& out) {
  append_decision(v);
  if (trust_decided_catchup_) {
    // Unblock any replica still inside (or not yet at) this instance.
    broadcast(n_, frame_decided(instance_, v), out);
  } else {
    // Keep the decided instance serving laggards; it advances only when a
    // message for it arrives.
    retired_.emplace(instance_, std::move(current_));
  }
  open_instance(out);
}

void ReplicatedLog::open_instance(std::vector<Outgoing>& out) {
  while (true) {
    ++instance_;

    // A DECIDED for this instance may already be cached: apply without
    // running the engine at all.
    if (const auto cached = decided_cache_.find(instance_);
        cached != decided_cache_.end()) {
      const Value v = cached->second;
      decided_cache_.erase(cached);
      future_.erase(instance_);
      append_decision(v);
      continue;
    }

    current_ = engine_(self_, next_proposal());

    // Feed messages that arrived for this instance before we opened it.
    const auto it = future_.find(instance_);
    if (it != future_.end()) {
      for (const auto& [from, payload] : it->second) {
        instance_sends_.clear();
        const Incoming in{from, payload};
        current_->step(&in, FdValue{}, instance_sends_);
        frame_instance_sends(instance_, out);
      }
      future_.erase(it);
    }
    return;
  }
}

void ReplicatedLog::step_instance(const Incoming* in, const FdValue& d,
                                  std::vector<Outgoing>& out) {
  instance_sends_.clear();
  current_->step(in, d, instance_sends_);
  frame_instance_sends(instance_, out);
}

void ReplicatedLog::frame_instance_sends(int k, std::vector<Outgoing>& out) {
  reframe_sends(instance_sends_, frame_scratch_,
                [k](ByteWriter& w, const Bytes& payload) {
                  w.u8(kFrameInner);
                  w.uvarint(static_cast<std::uint64_t>(k));
                  w.bytes(payload);
                },
                out);
}

void ReplicatedLog::step(const Incoming* in, const FdValue& d,
                         std::vector<Outgoing>& out) {
  if (!announced_) {
    // Client-request dissemination: one SUBMIT broadcast with the whole
    // stream, so every replica's pool (and hence every leader's
    // proposals) eventually covers every command.
    announced_ = true;
    ByteWriter w;
    w.u8(kFrameSubmit);
    w.uvarint(pending_.size());
    for (Value v : pending_) w.svarint(v);
    broadcast(n_, w.take(), out);
  }
  if (instance_ == 0) open_instance(out);

  // Route the received frame, if any.
  const Incoming* for_current = nullptr;
  Incoming inner;
  Bytes inner_payload;
  if (in != nullptr) {
    ByteReader r(in->payload);
    const auto type = r.u8();
    if (type && *type == kFrameSubmit) {
      if (const auto count = r.uvarint(); count && *count <= r.remaining()) {
        for (std::uint64_t i = 0; i < *count; ++i) {
          const auto v = r.svarint();
          if (!v) break;
          if (*v != kNoop) pool_.insert(*v);
        }
      }
    } else if (type) {
      if (const auto inst = r.round()) {
        const int k = *inst;
        if (*type == kFrameInner) {
          if (auto payload = r.bytes(); payload && r.done()) {
            if (k == instance_) {
              inner_payload = std::move(*payload);
              inner = Incoming{in->from, inner_payload};
              for_current = &inner;
            } else if (k > instance_) {
              future_[k].push_back({in->from, std::move(*payload)});
            } else if (trust_decided_catchup_ && k >= 1 &&
                       static_cast<std::size_t>(k) <= log_.size()) {
              // We already finished instance k; short-circuit the sender.
              out.push_back(
                  {in->from,
                   frame_decided(k, log_[static_cast<std::size_t>(k - 1)])});
            } else if (const auto retired = retired_.find(k);
                       retired != retired_.end()) {
              // No-catch-up mode: the retired instance keeps serving,
              // driven by the laggard's traffic and this step's real
              // detector value.
              instance_sends_.clear();
              const Incoming old{in->from, *payload};
              retired->second->step(&old, d, instance_sends_);
              frame_instance_sends(k, out);
            }
          }
        } else if (*type == kFrameDecided && trust_decided_catchup_) {
          if (const auto v = r.svarint(); v && r.done()) {
            if (k == instance_) {
              append_decision(*v);
              open_instance(out);
            } else if (k > instance_) {
              decided_cache_.emplace(k, *v);
            }
          }
        }
      }
    }
  }

  step_instance(for_current, d, out);

  if (const auto decision = current_->decision()) {
    commit(*decision, out);
  }
}

AutomatonFactory make_replicated_log(
    Pid n, std::vector<std::vector<Value>> command_streams,
    ConsensusFactory engine, bool trust_decided_catchup) {
  assert(command_streams.size() == static_cast<std::size_t>(n));
  return [n, command_streams, engine, trust_decided_catchup](Pid p) {
    return std::make_unique<ReplicatedLog>(
        p, n, command_streams[static_cast<std::size_t>(p)], engine,
        trust_decided_catchup);
  };
}

LogVerdict check_logs(const FailurePattern& fp,
                      const std::vector<std::unique_ptr<Automaton>>& automata,
                      const std::vector<std::vector<Value>>& command_streams) {
  LogVerdict verdict;
  verdict.correct_prefix_consistent = true;
  verdict.all_prefix_consistent = true;
  verdict.only_submitted = true;
  verdict.no_duplicates = true;
  const auto note = [&verdict](std::string why) {
    if (verdict.detail.empty()) verdict.detail = std::move(why);
  };

  std::vector<const std::vector<Value>*> logs;
  for (const auto& a : automata) {
    const auto* replica = dynamic_cast<const ReplicatedLog*>(a.get());
    logs.push_back(replica != nullptr ? &replica->log() : nullptr);
  }

  std::vector<Value> submitted;
  for (const auto& stream : command_streams) {
    submitted.insert(submitted.end(), stream.begin(), stream.end());
  }

  const Pid n = fp.n();
  for (Pid p = 0; p < n; ++p) {
    if (logs[static_cast<std::size_t>(p)] == nullptr) continue;
    const auto& log = *logs[static_cast<std::size_t>(p)];

    std::vector<Value> seen;
    for (Value v : log) {
      if (v == kNoop) continue;
      if (std::find(submitted.begin(), submitted.end(), v) == submitted.end()) {
        verdict.only_submitted = false;
        note("replica " + std::to_string(p) + " committed unsubmitted " +
             std::to_string(v));
      }
      if (std::find(seen.begin(), seen.end(), v) != seen.end()) {
        verdict.no_duplicates = false;
        note("replica " + std::to_string(p) + " committed " +
             std::to_string(v) + " twice");
      }
      seen.push_back(v);
    }

    for (Pid q = static_cast<Pid>(p + 1); q < n; ++q) {
      if (logs[static_cast<std::size_t>(q)] == nullptr) continue;
      const auto& other = *logs[static_cast<std::size_t>(q)];
      const std::size_t common = std::min(log.size(), other.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (log[i] == other[i]) continue;
        verdict.all_prefix_consistent = false;
        if (fp.is_correct(p) && fp.is_correct(q)) {
          verdict.correct_prefix_consistent = false;
          note("correct replicas " + std::to_string(p) + "/" +
               std::to_string(q) + " diverge at index " + std::to_string(i));
        } else {
          note("replicas " + std::to_string(p) + "/" + std::to_string(q) +
               " (one faulty) diverge at index " + std::to_string(i));
        }
        break;
      }
    }
  }
  return verdict;
}

}  // namespace nucon
