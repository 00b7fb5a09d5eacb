#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace globe::util {
namespace {

TEST(BytesTest, RoundTripStringConversion) {
  std::string s = "hello \x01\x02 world";
  Bytes b = to_bytes(s);
  EXPECT_EQ(to_string(b), s);
}

TEST(BytesTest, EmptyStringConversions) {
  EXPECT_TRUE(to_bytes("").empty());
  EXPECT_EQ(to_string(Bytes{}), "");
}

TEST(HexTest, EncodeKnownValues) {
  EXPECT_EQ(hex_encode(Bytes{}), "");
  EXPECT_EQ(hex_encode(Bytes{0x00}), "00");
  EXPECT_EQ(hex_encode(Bytes{0xde, 0xad, 0xbe, 0xef}), "deadbeef");
  EXPECT_EQ(hex_encode(Bytes{0x0f, 0xf0}), "0ff0");
}

TEST(HexTest, DecodeKnownValues) {
  EXPECT_EQ(hex_decode(""), Bytes{});
  EXPECT_EQ(hex_decode("deadbeef"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(hex_decode("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);
}

TEST(HexTest, DecodeRejectsNonHex) {
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);
  EXPECT_THROW(hex_decode("0g"), std::invalid_argument);
}

TEST(HexTest, RoundTripAllByteValues) {
  Bytes all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(hex_decode(hex_encode(all)), all);
}

TEST(CtEqualTest, EqualAndUnequal) {
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
  EXPECT_TRUE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2}));
  EXPECT_FALSE(ct_equal(Bytes{0x80}, Bytes{0x00}));
}

TEST(AppendTest, AppendsInPlace) {
  Bytes a{1, 2};
  append(a, Bytes{3});
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
  append(a, Bytes{});
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
}

}  // namespace
}  // namespace globe::util
