// Binary wire codec used by every GlobeDoc protocol message.
//
// All integers are big-endian fixed width.  Variable-size payloads are
// length-prefixed (u32).  Reader performs strict bounds checking and throws
// SerialError on truncated or oversized input, so malformed data from an
// untrusted replica can never read out of bounds.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bounds_annotations.hpp"
#include "util/bytes.hpp"

namespace globe::util {

class SerialError : public std::runtime_error {
 public:
  explicit SerialError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends encoded fields to an internal buffer.
class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed byte string (u32 length + raw bytes).
  void bytes(BytesView b);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view s);
  /// Raw bytes with NO length prefix (fixed-size fields such as OIDs).
  void raw(BytesView b);

  const Bytes& buffer() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Consumes fields from a read-only view.  Does not own the data.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}
  /// A Reader views its input, so a temporary would dangle.
  Reader(Bytes&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Length-prefixed byte string; rejects lengths beyond the remainder.
  Bytes bytes();
  std::string str();
  /// Exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Exactly n raw bytes, viewed where they lie in the input.
  BytesView view(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }
  /// Throws SerialError unless the whole input has been consumed.
  void expect_end() const;

 private:
  /// Rejects any read of n bytes beyond what the input actually holds, so
  /// every Reader allocation is bounded by the input size.
  GLOBE_LENGTH_GUARD void need(std::size_t n) const;
  BytesView data_;
  std::size_t pos_ = 0;
};

/// Validates a wire-decoded element count against a protocol ceiling.
/// Throws SerialError (mapped to a protocol error by every parse path) when
/// the count exceeds max_n — the message is rejected outright, never
/// silently truncated, and nothing is allocated for it.
GLOBE_LENGTH_GUARD std::uint32_t checked_count(std::uint32_t n,
                                               std::uint32_t max_n);

}  // namespace globe::util
