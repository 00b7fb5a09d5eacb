#include "util/bytes.hpp"

#include <stdexcept>

namespace globe::util {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

std::string hex_encode(BytesView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0x0f]);
  }
  return out;
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Bytes hex_decode(std::string_view s) {
  if (s.size() % 2 != 0) {
    throw std::invalid_argument("hex_decode: odd-length input");
  }
  Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    int hi = hex_nibble(s[i]);
    int lo = hex_nibble(s[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("hex_decode: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

bool ct_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace globe::util
