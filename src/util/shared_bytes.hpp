// Refcounted immutable payloads for the simulated network.
//
// A broadcast used to copy its encoded payload once per destination; with
// n processes that is n-1 redundant copies of buffers that are never
// mutated after encoding. SharedBytes wraps the encoded Bytes in a
// shared_ptr, so a broadcast enqueues n refcount bumps instead of n
// buffer copies, and its receivers share one decode of the sealed buffer
// (payload immutability is what makes the sharing sound: the simulator
// treats every in-flight payload as sealed at send time).
//
// The class also keeps thread-local byte accounting (PayloadCounters) so
// the scheduler and bench_hotpath can report, per run, how many payload
// bytes were deep-copied versus merely shared — the counter behind the
// "bytes copied per broadcast" regression check. Thread-local (not
// atomic-global) keeps the counters deterministic per run: each sweep job
// executes wholly on one worker thread.
#pragma once

#include <any>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/bytes.hpp"

namespace nucon {

/// Byte accounting for payload creation and fan-out (thread-local; see
/// SharedBytes::counters()). All fields only ever increase; callers
/// snapshot-and-subtract to scope them to one run.
struct PayloadCounters {
  std::uint64_t payloads = 0;      ///< payload buffers created (move or copy)
  std::uint64_t payload_bytes = 0; ///< bytes in those buffers
  std::uint64_t copied_bytes = 0;  ///< bytes deep-copied into a payload
  std::uint64_t shares = 0;        ///< refcount shares (would-be copies)
  std::uint64_t shared_bytes = 0;  ///< bytes covered by those shares
  std::uint64_t broadcasts = 0;    ///< broadcast()/gossip_to_others() calls

  friend PayloadCounters operator-(PayloadCounters a,
                                   const PayloadCounters& b) {
    a.payloads -= b.payloads;
    a.payload_bytes -= b.payload_bytes;
    a.copied_bytes -= b.copied_bytes;
    a.shares -= b.shares;
    a.shared_bytes -= b.shared_bytes;
    a.broadcasts -= b.broadcasts;
    return a;
  }
};

/// An immutable, refcounted payload. Copying shares the buffer (cheap,
/// counted as `shares`); the content is sealed at construction.
class SharedBytes {
 public:
  SharedBytes() = default;

  /// Seals a freshly encoded buffer (typically `writer.take()`); moves,
  /// never copies. Implicit so the many `{to, w.take()}` send sites keep
  /// reading as plain value construction.
  SharedBytes(Bytes&& b)  // NOLINT(google-explicit-constructor)
      : data_(std::make_shared<const Sealed>(std::move(b))) {
    counters().payloads += 1;
    counters().payload_bytes += size();
  }

  /// Seals a copy of a buffer the caller keeps (a reused scratch writer's
  /// buffer). Explicit because it is the one constructor that deep-copies,
  /// and the copy is charged to `copied_bytes`.
  explicit SharedBytes(const Bytes& b)
      : data_(std::make_shared<const Sealed>(b)) {
    counters().payloads += 1;
    counters().payload_bytes += size();
    counters().copied_bytes += size();
  }

  SharedBytes(const SharedBytes& other) : data_(other.data_) {
    counters().shares += 1;
    counters().shared_bytes += size();
  }
  SharedBytes& operator=(const SharedBytes& other) {
    data_ = other.data_;
    counters().shares += 1;
    counters().shared_bytes += size();
    return *this;
  }
  SharedBytes(SharedBytes&&) noexcept = default;
  SharedBytes& operator=(SharedBytes&&) noexcept = default;

  /// The payload content; a default-constructed SharedBytes reads as
  /// empty. Stable for the lifetime of any share, so a view of it is a
  /// valid `Incoming::payload`.
  [[nodiscard]] const Bytes& get() const {
    static const Bytes kEmpty;
    return data_ ? data_->bytes : kEmpty;
  }

  [[nodiscard]] std::size_t size() const {
    return data_ ? data_->bytes.size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Buffer identity (not content): two shares of one broadcast compare
  /// equal, two separately encoded but equal payloads do not. Multiplexers
  /// use this to frame a broadcast's payload once instead of per share.
  [[nodiscard]] const Bytes* raw() const {
    return data_ ? &data_->bytes : nullptr;
  }

  /// The receivers' shared decode of `view`, the part of this buffer they
  /// read: the first call stores `decode(view)` in the buffer's one slot,
  /// and every later call, through any share, returns the stored value.
  /// Exact because the bytes are sealed, `decode` is pure and every
  /// receiver reads the same view (debug builds check the range). A second
  /// T throws std::bad_any_cast. The slot is not synchronized: only an
  /// executor that delivers the buffer on one thread may hand it out.
  template <typename T, typename Decode>
  [[nodiscard]] const T& decoded(ByteView view, Decode&& decode) const {
    const Sealed& s = *data_;
    if (!s.slot.has_value()) {
      s.slot.emplace<T>(decode(view));
#ifndef NDEBUG
      s.view = view;
#endif
    }
    assert(view.data() == s.view.data() && view.size() == s.view.size());
    return std::any_cast<const T&>(s.slot);
  }

  /// Content equality (tests).
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.get() == b.get();
  }
  friend bool operator==(const SharedBytes& a, const Bytes& b) {
    return a.get() == b;
  }

  /// The calling thread's payload accounting. Monotone; scope to a run by
  /// snapshotting before and subtracting after.
  [[nodiscard]] static PayloadCounters& counters() {
    thread_local PayloadCounters c;
    return c;
  }

 private:
  struct Sealed {
    Bytes bytes;
    mutable std::any slot;  // decoded()'s, and the view it decoded
#ifndef NDEBUG
    mutable ByteView view;
#endif
  };

  std::shared_ptr<const Sealed> data_;
};

}  // namespace nucon
