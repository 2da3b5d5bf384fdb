// Byte-level serialization for messages that cross the simulated network.
//
// Algorithms in this library never hand pointers to each other; every
// payload (quorum histories, gossiped DAGs, estimates) is encoded to a flat
// byte vector and decoded on receipt, so message sizes reported by the
// benchmarks are the sizes a real transport would carry.
#pragma once

#include <algorithm>
#include <climits>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/process_set.hpp"

namespace nucon {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;  ///< bytes owned elsewhere

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { out_.push_back(v); }

  /// Unsigned LEB128 variable-length integer; compact for the small counts
  /// (rounds, pids, node indices) that dominate our payloads.
  void uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zig-zag encoded signed integer.
  void svarint(std::int64_t v) {
    uvarint((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void pid(Pid p) { svarint(p); }

  /// A set over n processes as ceil(n/64) little-endian words (one u64 up
  /// to 64 processes). The word count is derived from n on both sides, so
  /// no length prefix.
  void process_set(const ProcessSet& s, Pid n) {
    assert(n >= 1 && n <= kMaxProcesses);
    const int words = (static_cast<int>(n) + 63) / 64;
    for (int i = 0; i < words; ++i) u64(s.word(i));
  }

  void str(std::string_view s) {
    uvarint(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void bytes(const Bytes& b) {
    uvarint(b.size());
    out_.insert(out_.end(), b.begin(), b.end());
  }

  /// Appends the bytes verbatim, no length prefix (framing protocols that
  /// delimit by "rest of the message").
  void raw(ByteView b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }

  [[nodiscard]] Bytes take() { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

  /// Reuse mode: drops the content but keeps the capacity, so a writer
  /// held across encodes (a per-automaton scratch writer) stops allocating
  /// once it has grown to the steady-state message size. Pair with
  /// buffer() to read the encoding without taking ownership.
  void reset() { out_.clear(); }
  [[nodiscard]] const Bytes& buffer() const { return out_; }

 private:
  Bytes out_;
};

/// Reads values back out of a byte buffer. All accessors return nullopt on
/// truncated or malformed input; decoding never throws and never reads out
/// of bounds.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data.data()), size_(data.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  /// A reader only borrows the buffer; constructing one from a temporary
  /// would leave it dangling as soon as the statement ends.
  explicit ByteReader(Bytes&&) = delete;

  [[nodiscard]] std::optional<std::uint8_t> u8() {
    if (pos_ >= size_) return std::nullopt;
    return data_[pos_++];
  }

  /// A bool written as one byte (`w.u8(flag)`): nullopt when the byte is
  /// missing or above 1, so a flag has one encoding.
  [[nodiscard]] std::optional<bool> flag() {
    const auto b = u8();
    if (!b || *b > 1) return std::nullopt;
    return *b == 1;
  }

  /// Accepts only the minimal encoding ByteWriter::uvarint emits, so one
  /// value has one encoding: a last byte of 0 after the first (`0x82 0x00`
  /// for 2) is overlong, and a tenth byte may carry only bit 63.
  [[nodiscard]] std::optional<std::uint64_t> uvarint() {
    std::uint64_t v = 0;
    for (int shift = 0; pos_ < size_; shift += 7) {
      const std::uint8_t b = data_[pos_++];
      if (shift == 63 && b > 1) return std::nullopt;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift > 0) return std::nullopt;
        return v;
      }
    }
    return std::nullopt;
  }

  /// A round number, or another non-negative `int` field (a timestamp, a
  /// count), written as a uvarint. nullopt when it does not fit an `int`:
  /// the message or saved state is malformed (no run gets near that
  /// bound), never filed under the truncated value.
  [[nodiscard]] std::optional<int> round() {
    const auto v = uvarint();
    if (!v || *v > static_cast<std::uint64_t>(INT_MAX)) return std::nullopt;
    return static_cast<int>(*v);
  }

  [[nodiscard]] std::optional<std::int64_t> svarint() {
    const auto raw = uvarint();
    if (!raw) return std::nullopt;
    return static_cast<std::int64_t>((*raw >> 1) ^ (~(*raw & 1) + 1));
  }

  [[nodiscard]] std::optional<std::uint64_t> u64() {
    if (pos_ + 8 > size_) return std::nullopt;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::optional<Pid> pid() {
    const auto v = svarint();
    if (!v || *v < 0 || *v >= kMaxProcesses) return std::nullopt;
    return static_cast<Pid>(*v);
  }

  /// Reads ByteWriter::process_set(s, n). Rejects any member >= n, so a
  /// payload encoded at one width cannot silently decode at another
  /// (cross-width decode rejection).
  [[nodiscard]] std::optional<ProcessSet> process_set(Pid n) {
    assert(n >= 1 && n <= kMaxProcesses);
    const int words = (static_cast<int>(n) + 63) / 64;
    std::uint64_t buf[detail::kSetWords];
    for (int i = 0; i < words; ++i) {
      const auto w = u64();
      if (!w) return std::nullopt;
      const int low = 64 * i;  // first pid of this word
      const std::uint64_t valid =
          n - low >= 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << (n - low)) - 1);
      if ((*w & ~valid) != 0) return std::nullopt;
      buf[i] = *w;
    }
    return ProcessSet::from_words(buf, words);
  }

  [[nodiscard]] std::optional<std::string> str() {
    // Compare against the remaining space, never `pos_ + *len`: a huge
    // declared length would wrap the addition and pass the bounds check,
    // turning a malformed message into an out-of-bounds read.
    const auto len = uvarint();
    if (!len || *len > size_ - pos_) return std::nullopt;
    std::string s(reinterpret_cast<const char*>(data_ + pos_), *len);
    pos_ += *len;
    return s;
  }

  [[nodiscard]] std::optional<Bytes> bytes() {
    const auto len = uvarint();
    if (!len || *len > size_ - pos_) return std::nullopt;
    Bytes b(data_ + pos_, data_ + pos_ + *len);
    pos_ += *len;
    return b;
  }

  /// Consumes `prefix` when the unread input starts with it; otherwise
  /// reads nothing.
  [[nodiscard]] bool skip_prefix(ByteView prefix) {
    if (prefix.size() > size_ - pos_ ||
        !std::equal(prefix.begin(), prefix.end(), data_ + pos_)) {
      return false;
    }
    pos_ += prefix.size();
    return true;
  }

  [[nodiscard]] bool done() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace nucon
