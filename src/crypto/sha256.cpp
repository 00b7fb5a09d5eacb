#include "crypto/sha256.hpp"

#include "crypto/sha_compress.hpp"

namespace globe::crypto {

namespace detail {

const std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

inline std::uint32_t rotr(std::uint32_t v, unsigned n) {
  return (v >> n) | (v << (32 - n));
}

}  // namespace

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = std::uint32_t{data[4 * i]} << 24 | std::uint32_t{data[4 * i + 1]} << 16 |
             std::uint32_t{data[4 * i + 2]} << 8 | data[4 * i + 3];
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace detail

namespace {

void compress(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  static const detail::CompressFn chosen = [] {
#if defined(__x86_64__)
    if (detail::cpu_has_sha_ni()) return detail::sha256_compress_shani;
#endif
    return detail::sha256_compress_portable;
  }();
  chosen(state, data, blocks);
}

}  // namespace

void Sha256::reset() {
  h_ = detail::kSha256Iv;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(util::BytesView data) {
  total_len_ += data.size();
  detail::absorb(compress, h_.data(), buffer_.data(), buffer_len_, data);
}

Sha256::Digest Sha256::finish() {
  detail::pad(compress, h_.data(), buffer_.data(), buffer_len_, total_len_);
  Digest out;
  detail::store_digest(h_, out.data());
  return out;
}

Sha256::Digest Sha256::digest(util::BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

util::Bytes Sha256::digest_bytes(util::BytesView data) {
  Digest d = digest(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace globe::crypto
