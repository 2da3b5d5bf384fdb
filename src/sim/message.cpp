#include "sim/message.hpp"

#include <cassert>

namespace nucon {

void MessageBuffer::add(Message m) {
  assert(m.to >= 0 && m.to < kMaxProcesses);
  const auto to = static_cast<std::size_t>(m.to);
  if (to >= queues_.size()) queues_.resize(to + 1);
  // Every executor stamps sends with a run-wide logical clock that never
  // moves backwards (the scheduler's time, a replayed run's step times, a
  // path's step index; see SendNamer), so each destination FIFO stays
  // sorted by sent_at and oldest_sent_at can read front() instead of
  // scanning.
  assert(queues_[to].empty() || queues_[to].back().sent_at <= m.sent_at);
  queues_[to].push_back(std::move(m));
  ++total_;
}

std::size_t MessageBuffer::pending_for(Pid q) const {
  assert(q >= 0 && q < kMaxProcesses);
  const auto i = static_cast<std::size_t>(q);
  return i < queues_.size() ? queues_[i].size() : 0;
}

const Message& MessageBuffer::peek(Pid q, std::size_t i) const {
  assert(i < pending_for(q));
  return queues_[static_cast<std::size_t>(q)][i];
}

Message MessageBuffer::take(Pid q, std::size_t i) {
  assert(i < pending_for(q));
  auto& queue = queues_[static_cast<std::size_t>(q)];
  Message m = std::move(queue[i]);
  queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
  --total_;
  return m;
}

std::optional<Message> MessageBuffer::take_by_id(Pid q, MsgId id) {
  if (pending_for(q) == 0) return std::nullopt;
  auto& queue = queues_[static_cast<std::size_t>(q)];
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].id == id) return take(q, i);
  }
  return std::nullopt;
}

std::optional<Time> MessageBuffer::oldest_sent_at(Pid q) const {
  if (pending_for(q) == 0) return std::nullopt;
  return queues_[static_cast<std::size_t>(q)].front().sent_at;
}

}  // namespace nucon
