#include "crypto/aes.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "util/bytes.hpp"

namespace globe::crypto {
namespace {

using util::Bytes;
using util::hex_decode;
using util::hex_encode;

Aes::Block to_block(const Bytes& b) {
  Aes::Block blk{};
  std::copy(b.begin(), b.end(), blk.begin());
  return blk;
}

std::string encrypt_hex(const std::string& key_hex, const std::string& pt_hex) {
  Aes aes(hex_decode(key_hex));
  Aes::Block out;
  aes.encrypt_block(to_block(hex_decode(pt_hex)), out);
  return hex_encode(util::BytesView(out.data(), out.size()));
}

// FIPS-197 Appendix C known-answer vectors.
TEST(AesTest, Fips197Aes128) {
  EXPECT_EQ(encrypt_hex("000102030405060708090a0b0c0d0e0f",
                        "00112233445566778899aabbccddeeff"),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes192) {
  EXPECT_EQ(encrypt_hex("000102030405060708090a0b0c0d0e0f1011121314151617",
                        "00112233445566778899aabbccddeeff"),
            "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Aes256) {
  EXPECT_EQ(encrypt_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                        "00112233445566778899aabbccddeeff"),
            "8ea2b7ca516745bfeafc49904b496089");
}

// NIST SP 800-38A ECB vector.
TEST(AesTest, Sp800_38aEcbAes128) {
  EXPECT_EQ(encrypt_hex("2b7e151628aed2a6abf7158809cf4f3c",
                        "6bc1bee22e409f96e93d7e117393172a"),
            "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(AesTest, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(33)), std::invalid_argument);
}

TEST(AesCtrTest, FirstBlockMatchesManualConstruction) {
  auto rng = HmacDrbg::from_seed(11);
  Bytes key = rng.bytes(16);
  Bytes nonce = rng.bytes(12);

  // Expected keystream block 0 = AES(key, nonce || be32(0)).
  Aes aes(key);
  Aes::Block counter{};
  std::copy(nonce.begin(), nonce.end(), counter.begin());
  Aes::Block ks;
  aes.encrypt_block(counter, ks);

  Bytes pt(16, 0);
  AesCtr ctr(key, nonce);
  Bytes ct = ctr.process_copy(pt);
  EXPECT_EQ(ct, Bytes(ks.begin(), ks.end()));
}

TEST(AesCtrTest, EncryptDecryptRoundTrip) {
  auto rng = HmacDrbg::from_seed(12);
  Bytes key = rng.bytes(32);
  Bytes nonce = rng.bytes(12);
  Bytes msg = rng.bytes(1000);

  AesCtr enc(key, nonce);
  Bytes ct = enc.process_copy(msg);
  EXPECT_NE(ct, msg);

  AesCtr dec(key, nonce);
  EXPECT_EQ(dec.process_copy(ct), msg);
}

TEST(AesCtrTest, StreamingMatchesOneShot) {
  auto rng = HmacDrbg::from_seed(13);
  Bytes key = rng.bytes(16);
  Bytes nonce = rng.bytes(12);
  Bytes msg = rng.bytes(100);

  AesCtr one(key, nonce);
  Bytes expected = one.process_copy(msg);

  AesCtr chunked(key, nonce);
  Bytes out;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    std::size_t n = std::min<std::size_t>(7, msg.size() - i);
    Bytes piece(msg.begin() + static_cast<std::ptrdiff_t>(i),
                msg.begin() + static_cast<std::ptrdiff_t>(i + n));
    chunked.process(piece);
    util::append(out, piece);
  }
  EXPECT_EQ(out, expected);
}

TEST(AesCtrTest, CounterAdvancesAcrossBlocks) {
  auto rng = HmacDrbg::from_seed(14);
  Bytes key = rng.bytes(16);
  Bytes nonce = rng.bytes(12);
  Bytes zeros(64, 0);
  AesCtr ctr(key, nonce);
  Bytes ks = ctr.process_copy(zeros);
  // Keystream blocks must be pairwise distinct.
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_FALSE(std::equal(ks.begin() + 16 * i, ks.begin() + 16 * (i + 1),
                              ks.begin() + 16 * j));
    }
  }
}

TEST(AesCtrTest, RejectsBadNonceSize) {
  Bytes key(16, 1);
  EXPECT_THROW(AesCtr(key, Bytes(11)), std::invalid_argument);
  EXPECT_THROW(AesCtr(key, Bytes(16)), std::invalid_argument);
}

}  // namespace
}  // namespace globe::crypto
