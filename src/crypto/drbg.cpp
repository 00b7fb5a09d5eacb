#include "crypto/drbg.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace globe::crypto {

namespace {
constexpr std::uint8_t kZeroKey[Sha256::kDigestSize] = {};
}  // namespace

HmacDrbg::HmacDrbg(util::BytesView seed) : key_(kZeroKey) {
  v_.fill(0x01);
  update(seed);
}

HmacDrbg HmacDrbg::from_seed(std::uint64_t seed) {
  util::Bytes s(8);
  for (int i = 0; i < 8; ++i) {
    s[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed >> (56 - 8 * i));
  }
  return HmacDrbg(s);
}

void HmacDrbg::update(util::BytesView provided) {
  const std::uint8_t zero = 0x00, one = 0x01;
  key_.rekey(key_.mac({v_, {&zero, 1}, provided}));
  v_ = key_.mac({v_});
  if (!provided.empty()) {
    key_.rekey(key_.mac({v_, {&one, 1}, provided}));
    v_ = key_.mac({v_});
  }
}

void HmacDrbg::fill(util::Bytes& out, std::size_t n) {
  out.resize(n);
  for (std::size_t done = 0; done < n; done += v_.size()) {
    v_ = key_.mac({v_});
    std::copy_n(v_.begin(), std::min(v_.size(), n - done),
                out.begin() + static_cast<std::ptrdiff_t>(done));
  }
  update({});
}

void HmacDrbg::reseed(util::BytesView seed) { update(seed); }

void SystemRandom::fill(util::Bytes& out, std::size_t n) {
  out.assign(n, 0);
  std::FILE* f = std::fopen("/dev/urandom", "rb");
  if (f == nullptr) throw std::runtime_error("SystemRandom: cannot open /dev/urandom");
  std::size_t got = std::fread(out.data(), 1, n, f);
  std::fclose(f);
  if (got != n) throw std::runtime_error("SystemRandom: short read");
}

}  // namespace globe::crypto
