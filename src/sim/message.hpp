// The message buffer M (paper §2.1).
//
// M is the multiset of (sender, payload, receiver) triples in flight.
// Messages are identified by (sender, sender-sequence-number), which makes
// every message unique (the paper assumes sender-side counters for the same
// reason) and lets recorded schedules be replayed deterministically.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/failure_pattern.hpp"
#include "util/bytes.hpp"
#include "util/process_set.hpp"
#include "util/shared_bytes.hpp"

namespace nucon {

/// Identifies one message: the k-th message ever sent by `sender`
/// (counting across all destinations, starting at 1). Ordered by (sender,
/// seq), the model checker's canonical order of pending messages.
struct MsgId {
  Pid sender = -1;
  std::uint64_t seq = 0;

  friend auto operator<=>(const MsgId&, const MsgId&) = default;
};

struct Message {
  MsgId id;
  Pid to = -1;
  /// Refcounted: the n messages of one broadcast share one sealed buffer.
  SharedBytes payload;
  Time sent_at = 0;
  /// Earliest time the timing-aware scheduler mode (sim/timing.hpp) will
  /// deliver the message; equals sent_at (and is ignored) when the mode is
  /// off. Not monotone within a queue — jitter differs per message.
  Time ready_at = 0;
};

/// In-flight messages, grouped per destination in send order. The
/// scheduler decides which (if any) pending message a step receives; the
/// buffer only tracks what is deliverable.
class MessageBuffer {
 public:
  /// Appends to the destination's FIFO. Send times are nondecreasing per
  /// queue (the simulation clock only moves forward), asserted in debug
  /// builds; oldest_sent_at() reads the front in O(1) on that invariant.
  void add(Message m);

  /// Number of messages pending for q.
  [[nodiscard]] std::size_t pending_for(Pid q) const;

  [[nodiscard]] std::size_t total_pending() const { return total_; }

  /// The i-th oldest pending message for q (0-based); i < pending_for(q).
  [[nodiscard]] const Message& peek(Pid q, std::size_t i) const;

  /// Removes and returns the i-th oldest pending message for q.
  [[nodiscard]] Message take(Pid q, std::size_t i);

  /// Removes and returns the pending message for q with the given id, if
  /// present (used when replaying recorded schedules).
  [[nodiscard]] std::optional<Message> take_by_id(Pid q, MsgId id);

  /// Oldest pending send time for q, if any (fairness bookkeeping).
  [[nodiscard]] std::optional<Time> oldest_sent_at(Pid q) const;

 private:
  // One FIFO per destination; indexed by pid. Grown lazily to the highest
  // destination seen: a fixed kMaxProcesses array of deques would cost
  // ~0.5MB per buffer (libstdc++ preallocates a node per deque) and the
  // checkers clone buffers freely.
  std::vector<std::deque<Message>> queues_;
  std::size_t total_ = 0;
};

}  // namespace nucon
