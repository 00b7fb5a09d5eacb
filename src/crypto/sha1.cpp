#include "crypto/sha1.hpp"

#include "crypto/sha_compress.hpp"
#include "obs/profile.hpp"

namespace globe::crypto {

namespace {

inline std::uint32_t rotl(std::uint32_t v, unsigned n) {
  return (v << n) | (v >> (32 - n));
}

// One round: e += rotl(a, 5) + f + k + w, and b rotates by 30.  Five calls
// with the variables rotated one place each stand for the usual shuffle
// e = d, d = c, c = rotl(b, 30), b = a, a = temp.
inline void step(std::uint32_t a, std::uint32_t& b, std::uint32_t& e,
                 std::uint32_t f, std::uint32_t k, std::uint32_t w) {
  e += rotl(a, 5) + f + k + w;
  b = rotl(b, 30);
}

inline std::uint32_t ch(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (b & c) | (~b & d);
}
inline std::uint32_t parity(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return b ^ c ^ d;
}
inline std::uint32_t maj(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (b & c) | (b & d) | (c & d);
}

// Word i of the message schedule, for 16 <= i < 80, computed in place in a
// 16-word ring: w[i mod 16] holds word i − 16 until round i overwrites it.
// Computed inside the rounds, each word is one load of four ring words the
// compiler keeps at hand; a separate loop over an 80-word array, which GCC
// vectorizes two lanes wide, reloads words its own last stores have not yet
// forwarded.
inline std::uint32_t schedule(std::uint32_t* w, int i) {
  w[i & 15] = rotl(w[(i - 3) & 15] ^ w[(i - 8) & 15] ^ w[(i - 14) & 15] ^ w[i & 15], 1);
  return w[i & 15];
}

// Rounds i..i+4 with round function F: no round tests its index.  Rounds
// below 16 take the block's words as they are; later ones schedule theirs.
template <std::uint32_t (*F)(std::uint32_t, std::uint32_t, std::uint32_t)>
inline void five_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                        std::uint32_t& d, std::uint32_t& e, std::uint32_t k,
                        std::uint32_t* w, int i) {
  auto word = [w, i](int j) { return i + j < 16 ? w[i + j] : schedule(w, i + j); };
  step(a, b, e, F(b, c, d), k, word(0));
  step(e, a, d, F(a, b, c), k, word(1));
  step(d, e, c, F(e, a, b), k, word(2));
  step(c, d, b, F(d, e, a), k, word(3));
  step(b, c, a, F(c, d, e), k, word(4));
}

void compress(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  static const detail::CompressFn chosen = [] {
#if defined(__x86_64__)
    if (detail::cpu_has_sha_ni()) return detail::sha1_compress_shani;
#endif
    return detail::sha1_compress_portable;
  }();
  chosen(state, data, blocks);
}

}  // namespace

namespace detail {

void sha1_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) {
      w[i] = std::uint32_t{data[4 * i]} << 24 | std::uint32_t{data[4 * i + 1]} << 16 |
             std::uint32_t{data[4 * i + 2]} << 8 | data[4 * i + 3];
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
    for (int i = 0; i < 20; i += 5) five_rounds<ch>(a, b, c, d, e, 0x5A827999u, w, i);
    for (int i = 20; i < 40; i += 5) five_rounds<parity>(a, b, c, d, e, 0x6ED9EBA1u, w, i);
    for (int i = 40; i < 60; i += 5) five_rounds<maj>(a, b, c, d, e, 0x8F1BBCDCu, w, i);
    for (int i = 60; i < 80; i += 5) five_rounds<parity>(a, b, c, d, e, 0xCA62C1D6u, w, i);
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

}  // namespace detail

void Sha1::reset() {
  h_ = detail::kSha1Iv;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::update(util::BytesView data) {
  total_len_ += data.size();
  detail::absorb(compress, h_.data(), buffer_.data(), buffer_len_, data);
}

Sha1::Digest Sha1::finish() {
  detail::pad(compress, h_.data(), buffer_.data(), buffer_len_, total_len_);
  Digest out;
  detail::store_digest(h_, out.data());
  return out;
}

Sha1::Digest Sha1::digest(util::BytesView data) { return digest_parts({data}); }

Sha1::Digest Sha1::digest_parts(std::initializer_list<util::BytesView> parts) {
  GLOBE_PROFILE_SCOPE("sha1");
  Sha1 h;
  for (util::BytesView part : parts) h.update(part);
  return h.finish();
}

util::Bytes Sha1::digest_bytes(util::BytesView data) {
  Digest d = digest(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace globe::crypto
