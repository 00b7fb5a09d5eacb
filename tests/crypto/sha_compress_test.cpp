// Both compression paths of SHA-1 and SHA-256, called directly: the FIPS 180
// vectors on each, then the two against each other on random inputs.  Sha1
// and Sha256 use one path per CPU, so the hash tests alone would leave the
// other path untested on any given machine.
#include "crypto/sha_compress.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace globe::crypto {
namespace {

using detail::CompressFn;
using detail::kSha1Iv;
using detail::kSha256Iv;
using util::Bytes;
using util::BytesView;

constexpr const char* kNoShaNi =
    "this CPU has no SHA extensions: only the portable path runs here";

CompressFn sha1_shani() {
#if defined(__x86_64__)
  if (detail::cpu_has_sha_ni()) return detail::sha1_compress_shani;
#endif
  return nullptr;
}

CompressFn sha256_shani() {
#if defined(__x86_64__)
  if (detail::cpu_has_sha_ni()) return detail::sha256_compress_shani;
#endif
  return nullptr;
}

/// The hex digest of the concatenated `parts`, fed one part at a time.
template <std::size_t Words>
std::string digest_hex(CompressFn compress, std::array<std::uint32_t, Words> state,
                       const std::vector<BytesView>& parts) {
  std::uint8_t buffer[64] = {};
  std::size_t buffer_len = 0;
  std::uint64_t total = 0;
  for (BytesView part : parts) {
    detail::absorb(compress, state.data(), buffer, buffer_len, part);
    total += part.size();
  }
  detail::pad(compress, state.data(), buffer, buffer_len, total);
  Bytes out(4 * Words);
  detail::store_digest(state, out.data());
  return util::hex_encode(out);
}

struct Vector {
  std::vector<BytesView> parts;
  const char* sha1;
  const char* sha256;
};

/// FIPS 180 examples: empty, "abc", the two-block message, a million 'a'.
std::vector<Vector> fips_vectors() {
  static const Bytes abc = util::to_bytes("abc");
  static const Bytes two_blocks =
      util::to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  static const Bytes thousand_a(1000, 'a');
  return {
      {{},
       "da39a3ee5e6b4b0d3255bfef95601890afd80709",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {{abc},
       "a9993e364706816aba3e25717850c26c9cd0d89d",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {{two_blocks},
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::vector<BytesView>(1000, thousand_a),
       "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

void expect_sha1_vectors(CompressFn compress) {
  for (const Vector& v : fips_vectors()) {
    EXPECT_EQ(digest_hex(compress, kSha1Iv, v.parts), v.sha1);
  }
}

void expect_sha256_vectors(CompressFn compress) {
  for (const Vector& v : fips_vectors()) {
    EXPECT_EQ(digest_hex(compress, kSha256Iv, v.parts), v.sha256);
  }
}

TEST(ShaCompressTest, Sha1PortableMatchesFipsVectors) {
  expect_sha1_vectors(detail::sha1_compress_portable);
}

TEST(ShaCompressTest, Sha1ShaNiMatchesFipsVectors) {
  CompressFn shani = sha1_shani();
  if (shani == nullptr) GTEST_SKIP() << kNoShaNi;
  expect_sha1_vectors(shani);
}

TEST(ShaCompressTest, Sha256PortableMatchesFipsVectors) {
  expect_sha256_vectors(detail::sha256_compress_portable);
}

TEST(ShaCompressTest, Sha256ShaNiMatchesFipsVectors) {
  CompressFn shani = sha256_shani();
  if (shani == nullptr) GTEST_SKIP() << kNoShaNi;
  expect_sha256_vectors(shani);
}

/// `msg` cut at up to two random points.
std::vector<BytesView> random_split(BytesView msg, util::SplitMix64& rng) {
  std::size_t a = rng.below(msg.size() + 1), b = rng.below(msg.size() + 1);
  if (a > b) std::swap(a, b);
  return {msg.first(a), msg.subspan(a, b - a), msg.subspan(b)};
}

/// 1,000 messages from 0 to 300 KB (log-uniform lengths, so every block
/// and padding boundary is hit many times), each hashed by both paths with
/// different random split points.
template <std::size_t Words>
void expect_paths_agree(CompressFn portable, CompressFn shani,
                        const std::array<std::uint32_t, Words>& iv) {
  constexpr std::size_t kMaxLen = 300 * 1024;
  util::SplitMix64 rng(180);
  Bytes pool(kMaxLen);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng.next());
  for (int i = 0; i < 1000; ++i) {
    const double log_len = rng.next_double() * std::log(kMaxLen + 1.0);
    const auto len = static_cast<std::size_t>(std::exp(log_len)) - 1;
    BytesView msg = BytesView(pool).subspan(rng.below(kMaxLen - len + 1), len);
    ASSERT_EQ(digest_hex(portable, iv, random_split(msg, rng)),
              digest_hex(shani, iv, random_split(msg, rng)))
        << "length " << len;
  }
}

TEST(ShaCompressTest, Sha1PathsAgreeOnRandomInputs) {
  CompressFn shani = sha1_shani();
  if (shani == nullptr) GTEST_SKIP() << kNoShaNi;
  expect_paths_agree(detail::sha1_compress_portable, shani, kSha1Iv);
}

TEST(ShaCompressTest, Sha256PathsAgreeOnRandomInputs) {
  CompressFn shani = sha256_shani();
  if (shani == nullptr) GTEST_SKIP() << kNoShaNi;
  expect_paths_agree(detail::sha256_compress_portable, shani, kSha256Iv);
}

}  // namespace
}  // namespace globe::crypto
