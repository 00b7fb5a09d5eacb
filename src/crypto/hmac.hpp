// HMAC (RFC 2104) templated over the hash classes in this directory, plus an
// HKDF-style expand used by the TLS-like secure channel's key schedule.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>

#include "util/bytes.hpp"

namespace globe::crypto {

/// HMAC-H under one key, for H in {Sha1, Sha256}.  The key's padded blocks
/// are absorbed once, when the key is set; each mac() then costs only the
/// message's blocks plus one outer block, and allocates nothing.
template <typename Hash>
class Hmac {
 public:
  explicit Hmac(util::BytesView key) { rekey(key); }

  void rekey(util::BytesView key) {
    std::array<std::uint8_t, Hash::kBlockSize> pad{};
    if (key.size() > pad.size()) {
      auto d = Hash::digest(key);
      std::copy(d.begin(), d.end(), pad.begin());
    } else {
      std::copy(key.begin(), key.end(), pad.begin());
    }
    for (auto& b : pad) b ^= 0x36;
    inner_.reset();
    inner_.update(pad);
    for (auto& b : pad) b ^= 0x36 ^ 0x5c;
    outer_.reset();
    outer_.update(pad);
  }

  /// HMAC over the concatenation of `parts`.
  typename Hash::Digest mac(std::initializer_list<util::BytesView> parts) const {
    Hash inner = inner_;
    for (util::BytesView part : parts) inner.update(part);
    auto inner_digest = inner.finish();
    Hash outer = outer_;
    outer.update(inner_digest);
    return outer.finish();
  }

 private:
  Hash inner_;  // has absorbed key ^ ipad
  Hash outer_;  // has absorbed key ^ opad
};

/// Computes HMAC-H(key, data) for H in {Sha1, Sha256}.
template <typename Hash>
typename Hash::Digest hmac(util::BytesView key, util::BytesView data) {
  return Hmac<Hash>(key).mac({data});
}

template <typename Hash>
util::Bytes hmac_bytes(util::BytesView key, util::BytesView data) {
  auto d = hmac<Hash>(key, data);
  return util::Bytes(d.begin(), d.end());
}

/// HKDF-Expand (RFC 5869, SHA-256 PRF): derives `length` bytes of key
/// material from a pseudorandom key and a context label.
util::Bytes hkdf_expand_sha256(util::BytesView prk, util::BytesView info,
                               std::size_t length);

}  // namespace globe::crypto
