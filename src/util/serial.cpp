#include "util/serial.hpp"

namespace globe::util {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void Writer::bytes(BytesView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw SerialError("truncated message: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(std::uint16_t{data_[pos_]} << 8 |
                                               data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = std::uint32_t{data_[pos_]} << 24 |
                    std::uint32_t{data_[pos_ + 1]} << 16 |
                    std::uint32_t{data_[pos_ + 2]} << 8 | data_[pos_ + 3];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t hi = u32();
  std::uint64_t lo = u32();
  return hi << 32 | lo;
}

Bytes Reader::bytes() {
  std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  std::uint32_t n = u32();
  need(n);
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

Bytes Reader::raw(std::size_t n) {
  BytesView v = view(n);
  return Bytes(v.begin(), v.end());
}

BytesView Reader::view(std::size_t n) {
  need(n);
  BytesView v = data_.subspan(pos_, n);
  pos_ += n;
  return v;
}

std::uint32_t checked_count(std::uint32_t n, std::uint32_t max_n) {
  if (n > max_n) {
    throw SerialError("wire count " + std::to_string(n) +
                      " exceeds protocol ceiling " + std::to_string(max_n));
  }
  return n;
}

void Reader::expect_end() const {
  if (!at_end()) {
    throw SerialError("trailing garbage: " + std::to_string(remaining()) +
                      " bytes after message end");
  }
}

}  // namespace globe::util
