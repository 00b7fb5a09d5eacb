// Byte-buffer primitives shared by every GlobeDoc subsystem.
//
// `Bytes` is the universal owned buffer type; views are passed as
// `std::span<const std::uint8_t>` (aliased to `BytesView`).  The hex codec
// lives here because wire formats, OIDs and fingerprints all need it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace globe::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Builds an owned buffer from a string's raw bytes.
Bytes to_bytes(std::string_view s);

/// Interprets a buffer as UTF-8/ASCII text (no validation).
std::string to_string(BytesView b);

/// Lower-case hex encoding ("deadbeef").
std::string hex_encode(BytesView b);

/// Decodes hex (either case). Throws std::invalid_argument on bad input
/// (odd length or non-hex character).
Bytes hex_decode(std::string_view s);

/// Constant-time equality: timing does not depend on where buffers differ.
/// (Length mismatch returns false immediately; lengths are public here.)
bool ct_equal(BytesView a, BytesView b);

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

}  // namespace globe::util
