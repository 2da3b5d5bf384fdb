#include "fd/impl/heartbeat.hpp"

#include <algorithm>
#include <cassert>

namespace nucon {

HeartbeatOptions HeartbeatOptions::resolved(Pid n) const {
  HeartbeatOptions r = *this;
  if (r.heartbeat_every <= 0) r.heartbeat_every = 2 * std::max<Pid>(n, 1);
  if (r.timeout_init <= 0) r.timeout_init = 2 * r.heartbeat_every;
  if (r.timeout_increment <= 0) r.timeout_increment = r.heartbeat_every;
  if (r.timeout_max <= 0) r.timeout_max = 16 * r.heartbeat_every;
  r.timeout_max = std::max(r.timeout_max, r.timeout_init);
  return r;
}

HeartbeatFd::HeartbeatFd(Pid self, Pid n, HeartbeatMode mode,
                         HeartbeatOptions opts)
    : self_(self),
      n_(n),
      mode_(mode),
      opts_(opts.resolved(n)),
      last_heard_(static_cast<std::size_t>(n), 0),
      timeout_(static_cast<std::size_t>(n), opts_.timeout_init) {
  assert(self >= 0 && self < n);
}

void HeartbeatFd::step(const Incoming* in, const FdValue& /*d*/,
                       std::vector<Outgoing>& out) {
  ++local_time_;

  if (in != nullptr && in->from >= 0 && in->from < n_ && in->from != self_) {
    const auto q = static_cast<std::size_t>(in->from);
    last_heard_[q] = local_time_;
    if (suspected_.contains(in->from)) {
      // Mistake: the peer was alive after all. Unsuspect and widen its
      // timeout so the same gap is tolerated next time.
      suspected_.erase(in->from);
      timeout_[q] = std::min(timeout_[q] + opts_.timeout_increment,
                             opts_.timeout_max);
      ++mistakes_;
    }
  }

  for (Pid q = 0; q < n_; ++q) {
    if (q == self_) continue;
    if (local_time_ - last_heard_[static_cast<std::size_t>(q)] >
        timeout_[static_cast<std::size_t>(q)]) {
      suspected_.insert(q);
    }
  }

  if (local_time_ % opts_.heartbeat_every == 0 && n_ > 1) {
    SharedBytes::counters().broadcasts += 1;
    for (Pid q = 0; q < n_; ++q) {
      if (q != self_) out.push_back({q, heartbeat_});
    }
  }
}

bool HeartbeatFd::save_state(ByteWriter& w) const {
  w.svarint(local_time_);
  for (Pid q = 0; q < n_; ++q) {
    w.svarint(last_heard_[static_cast<std::size_t>(q)]);
    w.svarint(timeout_[static_cast<std::size_t>(q)]);
  }
  w.process_set(suspected_, n_);
  w.svarint(mistakes_);
  return true;
}

bool HeartbeatFd::restore_state(ByteReader& r) {
  const auto local_time = r.svarint();
  if (!local_time || *local_time < 0) return false;
  std::vector<Time> last_heard(static_cast<std::size_t>(n_));
  std::vector<Time> timeout(static_cast<std::size_t>(n_));
  for (std::size_t q = 0; q < last_heard.size(); ++q) {
    const auto heard = r.svarint();
    const auto limit = r.svarint();
    if (!heard || *heard < 0 || *heard > *local_time || !limit ||
        *limit < opts_.timeout_init || *limit > opts_.timeout_max) {
      return false;
    }
    last_heard[q] = *heard;
    timeout[q] = *limit;
  }
  const auto suspected = r.process_set(n_);
  const auto mistakes = r.svarint();
  if (!suspected || suspected->contains(self_) || !mistakes || *mistakes < 0) {
    return false;
  }
  local_time_ = *local_time;
  last_heard_ = std::move(last_heard);
  timeout_ = std::move(timeout);
  suspected_ = *suspected;
  mistakes_ = *mistakes;
  return true;
}

FdValue HeartbeatFd::output() const {
  return mode_ == HeartbeatMode::kOmega
             ? FdValue::of_leader(leader())
             : FdValue::of_suspects(suspected_);
}

AutomatonFactory make_heartbeat_fd(Pid n, HeartbeatMode mode,
                                   HeartbeatOptions opts) {
  return [n, mode, opts](Pid p) {
    return std::make_unique<HeartbeatFd>(p, n, mode, opts);
  };
}

}  // namespace nucon
